//! The three training-step workloads and what they share: the cumulative
//! counters read off the public stats structs, the output-check ledger,
//! and the warm-up every set-up ends with.

pub mod dev_dba;
pub mod fabric;
pub mod tiered;

use crate::trace::Tracer;
use teco_core::TecoSession;
use teco_cxl::{Direction, Opcode};
use teco_mem::{Addr, LineData, LINE_BYTES};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["dev_dba", "fabric_h4", "tiered_ckpt"];

/// DBA activates at this step; every set-up warms up through it.
pub const ACT_AFT_STEPS: u64 = 2;

/// One training-step workload, driven only through public API calls.
pub trait Workload {
    /// Draw the next step's inputs. Runs outside every program span.
    fn gen(&mut self);
    /// Run one training step.
    fn step(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Cumulative counters right now.
    fn totals(&self) -> Totals;
    /// Public API calls attempted so far.
    fn calls(&self) -> u64;
    /// Compare the program's outputs with independent oracles.
    fn check(&self) -> Checks;
}

/// Build and warm up workload `name`. `split` selects, for `fabric_h4`,
/// the step spelled out through its public calls (the traced run's).
pub fn build(name: &str, seed: u64, split: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dev_dba" => Box::new(dev_dba::DevDba::new(seed)?),
        "fabric_h4" => Box::new(fabric::FabricH4::new(seed, split)?),
        "tiered_ckpt" => Box::new(tiered::TieredCkpt::new(seed)?),
        other => return Err(format!("unknown workload `{other}`; expected one of {NAMES:?}")),
    })
}

/// Run steps `0..=ACT_AFT_STEPS`, after which DBA is active.
fn warm_up(w: &mut impl Workload) -> Result<(), String> {
    let mut tr = Tracer::off();
    for _ in 0..=ACT_AFT_STEPS {
        w.gen();
        w.step(&mut tr)?;
    }
    Ok(())
}

macro_rules! totals {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Cumulative counters a workload reads off the public stats
        /// structs, plus the benchmark's own record of what it pushed.
        /// Per-step figures are differences of two readings.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Totals {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Totals {
            /// Field-wise `self - base`.
            pub fn since(&self, base: &Totals) -> Totals {
                Totals { $($field: self.$field - base.$field,)* }
            }
        }
    };
}

totals! {
    /// The workload's simulated clock, ps.
    sim_ps,
    /// Parameter and gradient lines the sessions accepted.
    lines,
    /// Bytes every CXL link served, payloads and replays, both directions.
    link_bytes,
    /// Busy time of every link direction, ps.
    link_busy_ps,
    /// Payload bytes on the links toward the devices.
    param_wire_bytes,
    /// Raw bytes of the parameter lines pushed to giant-cache tensors.
    param_raw_bytes,
    /// Coherence messages, every opcode.
    coherence_msgs,
    /// Time fences waited for the wire to drain, ps.
    fence_wait_ps,
    /// Link line transfers attempted: lines delivered plus full-line retries.
    transfers,
    /// Link-layer replays after CRC errors.
    retries,
    /// Lines resent whole after a checksum mismatch or poison.
    full_line_retries,
    /// Wire time spent on replays, ns.
    replay_ns,
    /// Transfers abandoned after the replay limit.
    replay_exhausted,
    /// Time devices waited on the shared host budget, ns.
    arbiter_wait_ns,
    /// Pool reads the broadcast fan-out avoided, bytes.
    fanout_saved_bytes,
    /// Inter-host exchange time, ns.
    exchange_ns,
    /// Host-to-pool port bytes the collectives moved.
    port_bytes,
    /// Pool-media bytes the collectives served.
    media_bytes,
    /// Tensors migrated between tiers.
    migrations,
    /// Bytes migrated between tiers.
    migrated_bytes,
    /// Side-tier bytes charged to the placement engine's pool budget.
    pool_bytes,
    /// Pool time migrations took, ns.
    migration_ns,
    /// Checkpoint round trips taken.
    checkpoints,
    /// Encoded checkpoint bytes.
    snapshot_bytes,
}

const OPCODES: [Opcode; 8] = [
    Opcode::ReadOwn,
    Opcode::ReadShared,
    Opcode::GoFlush,
    Opcode::FlushData,
    Opcode::Invalidate,
    Opcode::Data,
    Opcode::Evict,
    Opcode::DbaConfig,
];

impl Totals {
    /// Fold in one session's public statistics.
    pub fn add_session(&mut self, s: &TecoSession) {
        let stats = s.stats();
        let link = s.link();
        let fault = s.fault_report();
        let side = s.placement().map(|p| p.stats()).unwrap_or_default();
        let lines = stats.param_lines + stats.grad_lines;
        self.lines += lines;
        for d in [Direction::ToDevice, Direction::ToHost] {
            self.link_bytes += link.bytes_served(d);
            self.link_busy_ps += link.busy(d).total().as_ps();
        }
        self.param_wire_bytes += link.volume(Direction::ToDevice);
        self.coherence_msgs += OPCODES.iter().map(|&op| s.coherence().msg_count(op)).sum::<u64>();
        self.fence_wait_ps += s.fence_stats().total_wait.as_ps();
        self.transfers += lines - side.side_lines + fault.full_line_retries;
        self.retries += fault.retries;
        self.full_line_retries += fault.full_line_retries;
        self.replay_ns += fault.replay_ns;
        self.replay_exhausted += fault.replay_exhausted;
        self.migrations += side.migrations;
        self.migrated_bytes += side.migrated_bytes;
        self.pool_bytes += side.pool_bytes;
        self.migration_ns += side.migration_ns;
    }

    /// Bytes the model moved over every CXL link and pool port.
    pub fn wire_bytes(&self) -> u64 {
        self.link_bytes + self.port_bytes + self.pool_bytes + self.migrated_bytes
    }
}

/// Output checks run and the ones that failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks run.
    pub run: u64,
    /// One entry per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold in another ledger.
    pub fn merge(&mut self, other: Checks) {
        self.run += other.run;
        self.failures.extend(other.failures);
    }

    /// Every line of a tensor reads back as the values last pushed to it.
    pub fn lines_match(&mut self, s: &TecoSession, tensor: &str, base: Addr, want: &[LineData]) {
        let bad = want
            .iter()
            .enumerate()
            .filter(|&(i, l)| s.device_read_line(line_addr(base, i)).ok().as_ref() != Some(l))
            .count();
        self.expect(bad == 0, || {
            format!("{tensor}: {bad} of {} lines differ from the values last pushed", want.len())
        });
    }
}

/// Address of line `i` of a tensor at `base`.
pub fn line_addr(base: Addr, i: usize) -> Addr {
    Addr(base.0 + (i * LINE_BYTES) as u64)
}

/// Bytes of a tensor of `lines` lines.
pub fn tensor_bytes(lines: usize) -> u64 {
    (lines * LINE_BYTES) as u64
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
