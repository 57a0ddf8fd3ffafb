//! `tiered_ckpt`: `dev_dba`'s tensors plus two optimizer-moment tensors
//! and one small hot tensor under `TieredPolicy`, with the link fault
//! model on, and a checkpoint round trip every 50 steps.
//!
//! Params and grads sit in the giant cache. The moments prefer host DRAM;
//! the giant cache has room for exactly one of them, which heat promotes
//! during warm-up, so both the promoted and the host-DRAM side paths carry
//! traffic every step. The hot tensor is small enough to stay
//! device-resident. Every 50 steps the session goes through `snapshot`,
//! `encode_snapshot`, `decode_snapshot` and `TecoSession::from_snapshot`,
//! and the run continues on the restored session.

use super::dev_dba::{GRAD_LINES, PARAM_LINES};
use super::{err, line_addr, tensor_bytes, warm_up, Checks, Totals, Workload, ACT_AFT_STEPS};
use crate::gen::Gen;
use crate::trace::Tracer;
use teco_core::{
    PlacementPolicy, SessionError, SessionSnapshot, TecoConfig, TecoSession, TieredPolicy,
};
use teco_cxl::{Direction, FaultConfig};
use teco_mem::tier::Tier;
use teco_mem::{Addr, LineData};
use teco_sim::{decode_snapshot, encode_snapshot, SimTime};

/// Lines of each optimizer-moment tensor (m and v).
pub const MOMENT_LINES: usize = 4096;
/// The optimizer streams moments back in chunks of this many lines.
const MOMENT_CHUNK: usize = 1024;
/// Lines of the device-resident hot tensor.
pub const HOT_LINES: usize = 16;
/// Steps between checkpoint round trips.
pub const CHECKPOINT_EVERY: u64 = 50;

fn config(seed: u64) -> TecoConfig {
    let fault = FaultConfig {
        crc_error_rate: 1e-3,
        dba_checksum_error_rate: 1e-4,
        seed,
        ..FaultConfig::off()
    };
    let policy = TieredPolicy {
        device_capacity_bytes: 64 << 10,
        device_size_threshold: tensor_bytes(HOT_LINES),
        host_dram_capacity_bytes: 64 << 20,
        ..TieredPolicy::default()
    };
    TecoConfig::default()
        .with_act_aft_steps(ACT_AFT_STEPS)
        .with_dirty_bytes(2)
        // Room for params, grads and exactly one moment tensor.
        .with_giant_cache_bytes(tensor_bytes(PARAM_LINES + GRAD_LINES + MOMENT_LINES))
        .with_fault(fault)
        .with_placement(PlacementPolicy::Tiered(policy))
}

/// The `tiered_ckpt` workload.
pub struct TieredCkpt {
    sess: TecoSession,
    params_at: Addr,
    grads_at: Addr,
    moments_at: [Addr; 2],
    hot_at: Addr,
    params: Vec<LineData>,
    grads: Vec<LineData>,
    moments: [Vec<LineData>; 2],
    hot: Vec<LineData>,
    gen: Gen,
    now: SimTime,
    step: u64,
    calls: u64,
    param_raw_bytes: u64,
    checkpoints: u64,
    snapshot_bytes: u64,
    restore_checks: Checks,
}

impl TieredCkpt {
    /// Build the session, place the tensors, and warm up until DBA is on.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut sess = TecoSession::new(config(seed)).map_err(err)?;
        let mut alloc = |name: &str, lines: usize| {
            sess.alloc_tensor(name, tensor_bytes(lines)).map(|(_, at)| at).map_err(err)
        };
        let params_at = alloc("params", PARAM_LINES)?;
        let grads_at = alloc("grads", GRAD_LINES)?;
        let moments_at = [alloc("moment_m", MOMENT_LINES)?, alloc("moment_v", MOMENT_LINES)?];
        let hot_at = alloc("hot_scale", HOT_LINES)?;
        let mut gen = Gen::new(seed, 2);
        let mut params = vec![LineData::zeroed(); PARAM_LINES];
        params.iter_mut().for_each(|l| gen.fill(l));
        let mut w = TieredCkpt {
            sess,
            params_at,
            grads_at,
            moments_at,
            hot_at,
            params,
            grads: vec![LineData::zeroed(); GRAD_LINES],
            moments: [
                vec![LineData::zeroed(); MOMENT_LINES],
                vec![LineData::zeroed(); MOMENT_LINES],
            ],
            hot: vec![LineData::zeroed(); HOT_LINES],
            gen,
            now: SimTime::ZERO,
            step: 0,
            calls: 0,
            param_raw_bytes: 0,
            checkpoints: 0,
            snapshot_bytes: 0,
            restore_checks: Checks::default(),
        };
        warm_up(&mut w)?;
        if !w.sess.dba_active() {
            return Err("tiered_ckpt: DBA inactive after warm-up".into());
        }
        Ok(w)
    }

    /// Capture, encode, decode and restore the session, check the restored
    /// copy against the live one, and continue on the restored copy.
    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let snap = tr.span("sim.snapshot.capture", "sim.snapshot", |_| self.sess.snapshot());
        let bytes = tr.span("sim.snapshot.encode", "sim.snapshot", |_| encode_snapshot(&snap));
        let back = tr
            .span("sim.snapshot.decode", "sim.snapshot", |_| {
                decode_snapshot::<SessionSnapshot>(&bytes)
            })
            .map_err(err)?;
        let restored = tr
            .span("sim.snapshot.restore", "sim.snapshot", |_| TecoSession::from_snapshot(&back))
            .map_err(err)?;
        let (live, resumed) = (fingerprint(&self.sess), fingerprint(&restored));
        let step = self.step;
        self.restore_checks.expect(live == resumed, || {
            format!("checkpoint at step {step}: restored {resumed:?}, live {live:?}")
        });
        self.checkpoints += 1;
        self.snapshot_bytes += bytes.len() as u64;
        self.sess = restored;
        Ok(())
    }
}

/// What a checkpoint round trip must preserve: the session's counters and
/// its clocks.
fn fingerprint(s: &TecoSession) -> impl PartialEq + std::fmt::Debug {
    let link = s.link();
    let drained = [Direction::ToDevice, Direction::ToHost].map(|d| link.drained_at(d));
    let placement = s.placement().map(|p| (p.stats(), p.arbiter().drained_at()));
    (s.stats(), s.fault_report(), s.fence_stats(), placement, drained, s.dba_active())
}

impl Workload for TieredCkpt {
    fn gen(&mut self) {
        self.params.iter_mut().for_each(|l| self.gen.perturb_low_halves(l));
        let fresh = self.grads.iter_mut().chain(self.moments.iter_mut().flatten());
        fresh.chain(self.hot.iter_mut()).for_each(|l| self.gen.fill(l));
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let now = self.now;
        let (sess, grads, grads_at) = (&mut self.sess, &self.grads, self.grads_at);
        tr.span("core.session.push_grads", "core.session", |_| {
            grads.iter().enumerate().try_for_each(|(i, g)| {
                sess.push_grad_line(line_addr(grads_at, i), *g, now).map(|_| ())
            })
        })
        .map_err(err)?;
        let t = tr
            .span("core.session.fence", "core.session", |_| sess.try_cxlfence_grads(now))
            .map_err(err)?;
        let step = self.step;
        tr.span("core.session.activation", "core.session", |_| sess.check_activation(step));
        tr.span("core.session.push_params", "core.session", |_| {
            sess.push_param_lines(self.params_at, &self.params, t)
        })
        .map_err(err)?;
        let side_done = tr
            .span("core.placement.side_write", "core.placement", |_| {
                let mut done = t;
                for (at, lines) in self.moments_at.iter().zip(&self.moments) {
                    for (k, chunk) in lines.chunks(MOMENT_CHUNK).enumerate() {
                        let iv =
                            sess.push_param_lines(line_addr(*at, k * MOMENT_CHUNK), chunk, t)?;
                        done = done.max(iv.end);
                    }
                }
                let iv = sess.push_param_lines(self.hot_at, &self.hot, t)?;
                Ok::<_, SessionError>(done.max(iv.end))
            })
            .map_err(err)?;
        let fenced = tr
            .span("core.session.fence", "core.session", |_| sess.try_cxlfence_params(t))
            .map_err(err)?;
        self.now = fenced.max(side_done);
        self.calls += (GRAD_LINES + 4 + 2 * MOMENT_LINES / MOMENT_CHUNK + 1) as u64;
        self.param_raw_bytes += tensor_bytes(PARAM_LINES);
        self.step += 1;
        if self.step.is_multiple_of(CHECKPOINT_EVERY) {
            self.calls += 4;
            self.checkpoint(tr)?;
        }
        Ok(())
    }

    fn totals(&self) -> Totals {
        let mut t = Totals {
            sim_ps: self.now.as_ps(),
            param_raw_bytes: self.param_raw_bytes,
            checkpoints: self.checkpoints,
            snapshot_bytes: self.snapshot_bytes,
            ..Totals::default()
        };
        t.add_session(&self.sess);
        t
    }

    fn calls(&self) -> u64 {
        self.calls
    }

    fn check(&self) -> Checks {
        let mut c = self.restore_checks.clone();
        let s = &self.sess;
        c.expect(s.dba_active(), || "DBA is not active".into());
        c.lines_match(s, "params", self.params_at, &self.params);
        c.lines_match(s, "moment_m", self.moments_at[0], &self.moments[0]);
        c.lines_match(s, "moment_v", self.moments_at[1], &self.moments[1]);
        c.lines_match(s, "hot_scale", self.hot_at, &self.hot);
        c.expect(s.degraded_regions().is_empty(), || {
            format!("regions degraded to the memcpy baseline: {:?}", s.degraded_regions())
        });
        let tiers = s.placement().map(|p| {
            [self.moments_at[0], self.moments_at[1], self.hot_at]
                .map(|a| p.locate(a).map(|(_, t)| t))
        });
        let want = [Some(Tier::GiantCache), Some(Tier::HostDram), Some(Tier::Device)];
        c.expect(tiers == Some(want), || {
            format!("moment_m, moment_v, hot_scale tiers {tiers:?}, want {want:?}")
        });
        c
    }
}
