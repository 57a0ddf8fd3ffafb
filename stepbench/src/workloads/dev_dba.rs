//! `dev_dba`: one `TecoSession` on the update protocol with
//! `dirty_bytes = 2`, a single tier and no faults. Each step pushes 4096
//! gradient lines one call at a time, fences, runs `check_activation`,
//! pushes 16384 parameter lines in one bulk call, and fences. Parameters
//! change only in the low two bytes of each word between steps (§III), so
//! DBA is lossless and the device copy must equal the pushed values.

use super::{err, line_addr, tensor_bytes, warm_up, Checks, Totals, Workload, ACT_AFT_STEPS};
use crate::gen::Gen;
use crate::trace::Tracer;
use teco_core::{TecoConfig, TecoSession};
use teco_mem::{Addr, LineData};
use teco_sim::SimTime;

/// Parameter lines pushed per step.
pub const PARAM_LINES: usize = 16384;
/// Gradient lines pushed per step.
pub const GRAD_LINES: usize = 4096;

/// The `dev_dba` workload.
pub struct DevDba {
    sess: TecoSession,
    params_at: Addr,
    grads_at: Addr,
    params: Vec<LineData>,
    grads: Vec<LineData>,
    gen: Gen,
    now: SimTime,
    step: u64,
    calls: u64,
    param_raw_bytes: u64,
}

impl DevDba {
    /// Build the session, map the tensors, and warm up until DBA is on.
    pub fn new(seed: u64) -> Result<Self, String> {
        let cfg = TecoConfig::default()
            .with_act_aft_steps(ACT_AFT_STEPS)
            .with_dirty_bytes(2)
            .with_giant_cache_bytes(tensor_bytes(PARAM_LINES + GRAD_LINES));
        let mut sess = TecoSession::new(cfg).map_err(err)?;
        let (_, params_at) = sess.alloc_tensor("params", tensor_bytes(PARAM_LINES)).map_err(err)?;
        let (_, grads_at) = sess.alloc_tensor("grads", tensor_bytes(GRAD_LINES)).map_err(err)?;
        let mut gen = Gen::new(seed, 1);
        let mut params = vec![LineData::zeroed(); PARAM_LINES];
        params.iter_mut().for_each(|l| gen.fill(l));
        let mut w = DevDba {
            sess,
            params_at,
            grads_at,
            params,
            grads: vec![LineData::zeroed(); GRAD_LINES],
            gen,
            now: SimTime::ZERO,
            step: 0,
            calls: 0,
            param_raw_bytes: 0,
        };
        warm_up(&mut w)?;
        if !w.sess.dba_active() {
            return Err("dev_dba: DBA inactive after warm-up".into());
        }
        Ok(w)
    }
}

impl Workload for DevDba {
    fn gen(&mut self) {
        self.params.iter_mut().for_each(|l| self.gen.perturb_low_halves(l));
        self.grads.iter_mut().for_each(|l| self.gen.fill(l));
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
        self.now = tr
            .span("core.session.fence", "core.session", |_| sess.try_cxlfence_params(t))
            .map_err(err)?;
        self.calls += GRAD_LINES as u64 + 4;
        self.param_raw_bytes += tensor_bytes(PARAM_LINES);
        self.step += 1;
        Ok(())
    }

    fn totals(&self) -> Totals {
        let mut t = Totals {
            sim_ps: self.now.as_ps(),
            param_raw_bytes: self.param_raw_bytes,
            ..Totals::default()
        };
        t.add_session(&self.sess);
        t
    }

    fn calls(&self) -> u64 {
        self.calls
    }

    fn check(&self) -> Checks {
        let mut c = Checks::default();
        c.expect(self.sess.dba_active(), || "DBA is not active".into());
        c.lines_match(&self.sess, "params", self.params_at, &self.params);
        c
    }
}
