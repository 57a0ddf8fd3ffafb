//! `fabric_h4`: 4 hosts × 2 devices in the `FabricWorkload` shape, 4096
//! gradient and 1024 parameter lines per device, and 1 ms of simulated
//! compute per step. The untraced run times `FabricDriver::run_step`; the
//! traced run drives the same step through the public calls it is made
//! of, so that spans can sit between them.

use super::{err, tensor_bytes, warm_up, Checks, Totals, Workload, ACT_AFT_STEPS};
use crate::trace::Tracer;
use teco_core::{
    ClusterConfig, ClusterDriver, ClusterReport, ClusterWorkload, FabricDriver, FabricWorkload,
    StepBoundary, TecoConfig,
};
use teco_cxl::{CollectiveConfig, CollectiveStats, PoolCollective};
use teco_mem::LineData;
use teco_sim::SimTime;

/// Hosts sharing the pool.
pub const HOSTS: usize = 4;
/// Devices per host.
pub const DEVICES: usize = 2;
/// Gradient lines per device per step.
pub const GRAD_LINES: u64 = 4096;
/// Parameter lines broadcast per step.
pub const PARAM_LINES: u64 = 1024;
/// Simulated compute per step, ns.
pub const COMPUTE_NS: u64 = 1_000_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The fabric this workload runs.
pub fn workload(seed: u64) -> FabricWorkload {
    let device = TecoConfig::default()
        .with_act_aft_steps(ACT_AFT_STEPS)
        .with_giant_cache_bytes(tensor_bytes((GRAD_LINES + PARAM_LINES) as usize));
    FabricWorkload {
        base: ClusterWorkload {
            cfg: ClusterConfig::new(device, DEVICES),
            steps: 0,
            param_lines: PARAM_LINES,
            grad_lines: GRAD_LINES,
            compute_ns_per_step: COMPUTE_NS,
            seed,
        },
        hosts: HOSTS,
        collective: CollectiveConfig::for_hosts(HOSTS),
    }
}

/// `FabricDriver::run_step` spelled out through the public calls it is
/// made of: per-host grad phase, staging, the pool all-reduce, activation,
/// the parameter draw and the per-host broadcast.
pub struct SplitFabric {
    hosts: Vec<ClusterDriver>,
    collective: PoolCollective,
    lag: SimTime,
    exchange: SimTime,
    global_grads: Vec<u8>,
    grad_checksum: u64,
    staged: Vec<Vec<u8>>,
    ready: Vec<SimTime>,
    params: Vec<LineData>,
}

impl SplitFabric {
    fn new(w: &FabricWorkload) -> Result<Self, String> {
        let hosts = (0..w.hosts)
            .map(|h| ClusterDriver::for_host(&w.base, h))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok(SplitFabric {
            hosts,
            collective: PoolCollective::new(w.collective).map_err(err)?,
            lag: SimTime::ZERO,
            exchange: SimTime::ZERO,
            global_grads: Vec::new(),
            grad_checksum: FNV_OFFSET,
            staged: Vec::new(),
            ready: Vec::new(),
            params: Vec::new(),
        })
    }

    fn cluster_time(&self) -> SimTime {
        self.hosts.iter().map(|d| d.cluster().cluster_time()).fold(SimTime::ZERO, SimTime::max)
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for host in &mut self.hosts {
            tr.span("core.cluster.grad_phase", "core.cluster", |_| {
                host.run_step_until(StepBoundary::AfterGradFence)
            })
            .map_err(err)?;
        }
        let lag = self.lag;
        self.staged.resize_with(self.hosts.len(), Vec::new);
        self.ready.clear();
        tr.span("core.cluster.stage", "core.cluster", |_| {
            for (host, buf) in self.hosts.iter().zip(self.staged.iter_mut()) {
                host.cluster().pool().copy_grad_bytes_into(buf);
                self.ready.push(host.cluster().cluster_time() + lag);
            }
        });
        let done = tr
            .span("cxl.collective.all_reduce", "cxl.collective", |_| {
                self.collective.all_reduce(&mut self.staged, &self.ready)
            })
            .map_err(err)?;
        self.lag = done.completion.saturating_sub(self.cluster_time());
        self.exchange += done.completion - done.start;
        for &b in &self.staged[0] {
            self.grad_checksum = (self.grad_checksum ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.global_grads.clone_from(&self.staged[0]);
        tr.span("core.cluster.activation", "core.cluster", |_| {
            self.hosts.iter_mut().for_each(ClusterDriver::check_activation)
        });
        tr.span("core.cluster.draw_params", "core.cluster", |_| {
            self.hosts[0].draw_param_lines(&mut self.params)
        });
        for host in &mut self.hosts {
            tr.span("core.cluster.broadcast", "core.cluster", |_| {
                host.broadcast_lines(&self.params)
            })
            .map_err(err)?;
        }
        Ok(())
    }
}

enum Fabric {
    Whole(FabricDriver),
    Split(SplitFabric),
}

/// The `fabric_h4` workload.
pub struct FabricH4 {
    fabric: Fabric,
    calls: u64,
    param_raw_bytes: u64,
}

impl FabricH4 {
    /// Build every host's cluster and the collective, and warm up until
    /// DBA is on. `split` selects the spelled-out step.
    pub fn new(seed: u64, split: bool) -> Result<Self, String> {
        let w = workload(seed);
        let fabric = if split {
            Fabric::Split(SplitFabric::new(&w)?)
        } else {
            Fabric::Whole(FabricDriver::new(&w).map_err(err)?)
        };
        let mut f = FabricH4 { fabric, calls: 0, param_raw_bytes: 0 };
        warm_up(&mut f)?;
        if !f.dba_active() {
            return Err("fabric_h4: DBA inactive after warm-up".into());
        }
        Ok(f)
    }

    /// Every host's cluster driver.
    pub fn hosts(&self) -> &[ClusterDriver] {
        match &self.fabric {
            Fabric::Whole(d) => d.hosts(),
            Fabric::Split(s) => &s.hosts,
        }
    }

    fn global_grads(&self) -> &[u8] {
        match &self.fabric {
            Fabric::Whole(d) => d.global_grads(),
            Fabric::Split(s) => &s.global_grads,
        }
    }

    /// Running checksum of every step's globally reduced gradient.
    pub fn grad_checksum(&self) -> u64 {
        match &self.fabric {
            Fabric::Whole(d) => d.report().global_grad_checksum,
            Fabric::Split(s) => s.grad_checksum,
        }
    }

    /// Every host's cluster report.
    pub fn host_reports(&self) -> Vec<ClusterReport> {
        self.hosts().iter().map(ClusterDriver::report).collect()
    }

    fn dba_active(&self) -> bool {
        self.hosts().iter().all(|h| h.cluster().devices().iter().all(|d| d.dba_active()))
    }

    fn fabric_time(&self) -> SimTime {
        match &self.fabric {
            Fabric::Whole(d) => d.fabric_time(),
            Fabric::Split(s) => s.cluster_time() + s.lag,
        }
    }

    fn exchange_ns(&self) -> u64 {
        match &self.fabric {
            Fabric::Whole(d) => d.report().exchange_ns,
            Fabric::Split(s) => s.exchange.as_ns(),
        }
    }

    fn collective_stats(&self) -> CollectiveStats {
        match &self.fabric {
            Fabric::Whole(d) => d.collective().stats(),
            Fabric::Split(s) => s.collective.stats(),
        }
    }
}

impl Workload for FabricH4 {
    /// The clusters draw line contents from their own seeded streams, so
    /// the harness generates nothing here.
    fn gen(&mut self) {}

    fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        match &mut self.fabric {
            Fabric::Whole(d) => {
                d.run_step().map_err(err)?;
                self.calls += 1;
            }
            Fabric::Split(s) => {
                s.step(tr)?;
                self.calls += 4 * HOSTS as u64 + 2;
            }
        }
        self.param_raw_bytes += tensor_bytes(HOSTS * DEVICES * PARAM_LINES as usize);
        Ok(())
    }

    fn totals(&self) -> Totals {
        let cs = self.collective_stats();
        let mut t = Totals {
            sim_ps: self.fabric_time().as_ps(),
            param_raw_bytes: self.param_raw_bytes,
            exchange_ns: self.exchange_ns(),
            port_bytes: cs.port_bytes,
            media_bytes: cs.media_bytes,
            ..Totals::default()
        };
        for host in self.hosts() {
            let cluster = host.cluster();
            cluster.devices().iter().for_each(|d| t.add_session(d));
            t.arbiter_wait_ns +=
                cluster.arbiter().accounts().iter().map(|a| a.wait_ns).sum::<u64>();
            t.fanout_saved_bytes += cluster.arbiter().fanout_saved_bytes();
        }
        t
    }

    fn calls(&self) -> u64 {
        self.calls
    }

    fn check(&self) -> Checks {
        let mut c = Checks::default();
        c.expect(self.dba_active(), || "DBA is not active on every device".into());
        // Oracle: a plain wrapping-u32 word sum of every host's staged
        // accumulator, independent of the collective's chunked kernel.
        let words = |bytes: &[u8]| -> Vec<u32> {
            bytes.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect()
        };
        let mut want: Vec<u32> = Vec::new();
        let mut staged = Vec::new();
        for host in self.hosts() {
            host.cluster().pool().copy_grad_bytes_into(&mut staged);
            let w = words(&staged);
            if want.is_empty() {
                want = w;
            } else {
                want.iter_mut().zip(w).for_each(|(a, b)| *a = a.wrapping_add(b));
            }
        }
        let got = words(self.global_grads());
        c.expect(!want.is_empty() && got == want, || {
            let bad = got.iter().zip(&want).filter(|(g, w)| g != w).count();
            format!(
                "global gradient: {bad} of {} words differ from the hosts' word sum",
                want.len()
            )
        });
        c
    }
}
