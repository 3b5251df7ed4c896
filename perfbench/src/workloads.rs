//! The three workloads: set-up (library compile + spec generation), the
//! timed run phase, and the reference run the output check diffs against.
//!
//! Every public call into the program is wrapped in a benchmark-owned
//! `fsim::span` guard. The guards cost one thread-local check when no
//! recorder is installed, so the untraced run pays (almost) nothing.

use fpga::{ConfigPort, ConfigTiming};
use fsim::{span, DeviceFaultPlan, SimDuration, SimRng};
use netlist::library::*;
use netlist::Netlist;
use pnr::CompileOptions;
use std::sync::Arc;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::{
    run_fleet, CheckpointConfig, CircuitId, CircuitLib, FleetConfig, MigrationPlan, PreemptAction,
    Report, RoundRobinScheduler, System, SystemConfig, TaskSpec,
};
use workload::{tenant_tasks, Domain, MixParams, TenantMixParams};

/// Tenants sharing the device(s); tasks are assigned round-robin.
pub const TENANTS: u32 = 8;
/// FPGA bursts per task (each preceded by a CPU burst).
pub const OPS_PER_TASK: usize = 4;
/// Round-robin time slice of every scheduler.
const SLICE: SimDuration = SimDuration::from_millis(4);

/// The device every workload targets.
pub fn timing() -> ConfigTiming {
    ConfigTiming {
        spec: fpga::device::part("VF400"),
        port: ConfigPort::SerialFast,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DynloadBacklog,
    PartitionGc,
    FleetCkpt,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::DynloadBacklog,
            Workload::PartitionGc,
            Workload::FleetCkpt,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// Tasks per instance and mean inter-arrival time. Each size is
    /// chosen so the layer the workload targets dominates host time, and
    /// every instance carries at least 1000 tasks (so at least ten
    /// turnaround samples lie beyond the reported p99). The loads are
    /// relative to the ~54 ms of simulated device time a task needs under
    /// dynamic loading, and the ~30 ms it needs under partitioning.
    fn mix(self) -> (usize, SimDuration) {
        match self {
            // ~1.35x saturation: the backlog grows for the whole run and
            // ends thousands of tasks deep.
            Workload::DynloadBacklog => (32_000, SimDuration::from_millis(40)),
            // ~0.45 of saturation. Closer to it, the turnaround tail
            // spreads by more than its bound from seed to seed.
            Workload::PartitionGc => (2_000, SimDuration::from_millis(70)),
            // ~0.45 of each device's capacity (four devices); the same
            // reason as above.
            Workload::FleetCkpt => (1_000, SimDuration::from_millis(30)),
        }
    }

    /// Independent instances per run. Simulated outcomes are pooled over
    /// them, so a run's figures rest on more work than one instance
    /// carries without paying for a bigger one (fleet host cost grows
    /// faster than linearly with its size).
    pub fn instances(self) -> usize {
        match self {
            Workload::DynloadBacklog => 2,
            Workload::PartitionGc => 8,
            Workload::FleetCkpt => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DynloadBacklog => "dynload_backlog",
            Workload::PartitionGc => "partition_gc",
            Workload::FleetCkpt => "fleet_ckpt",
        }
    }
}

/// The kernels of the five `workload::Domain::ALL` suites, built exactly
/// as `workload::suite` builds them. They are rebuilt here because
/// `workload::suite` compiles through the process-wide cache: a second
/// set-up in the same process would time a table lookup, not the flow.
/// `check_library` verifies the two lists stay the same circuits.
fn library_netlists() -> Vec<Netlist> {
    vec![
        // Multimedia.
        dsp::fir("fir-voice", 8, &[1, 3, 5, 3, 1]),
        dsp::fir("fir-image", 8, &[2, 4, 2]),
        dsp::moving_sum("smoother", 8, 4),
        arith::array_multiplier("dct-mac", 6),
        // Telecom.
        seq::lfsr("scrambler", 16, 0b1101_0000_0000_1000),
        codes::crc_comb("crc16", codes::CRC16_CCITT, 16, 16),
        codes::gray_encode("qam-map", 6),
        codes::hamming74_encode("fec-enc"),
        // Networking.
        codes::crc_comb("fcs32", 0x04C1_1DB7, 32, 16),
        logic::priority_encoder("classifier", 16),
        seq::pattern_fsm("delimiter"),
        logic::popcount("hamming-wt", 16),
        // Storage.
        logic::parity("stripe-parity", 16),
        codes::hamming74_decode("ecc-dec"),
        logic::majority("vote3", 5),
        codes::crc_comb("sector-crc", codes::CRC8, 8, 16),
        // Embedded control.
        alu::alu("tuner-alu", 8),
        logic::comparator("threshold", 8),
        seq::counter("watchdog", 12),
        seq::accumulator("integrator", 10),
    ]
}

/// One independent copy of the workload: its own seed and specs.
pub struct Instance {
    pub seed: u64,
    pub specs: Vec<TaskSpec>,
}

/// Everything a run needs: the compiled library and the instances.
pub struct Setup {
    pub lib: Arc<CircuitLib>,
    pub instances: Vec<Instance>,
}

/// Cold set-up: compile every library circuit through the full flow
/// (`pnr::compile`, which consults neither the process cache nor the
/// `VFPGA_CACHE_DIR` disk cache), then generate every instance's specs
/// from a seed derived from `seed`.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let opts = CompileOptions {
        max_height: timing().spec.rows,
        full_height: true,
        ..Default::default()
    };
    let lib = span::time("compile_library", || {
        let mut lib = CircuitLib::new();
        for net in library_netlists() {
            lib.register_compiled(pnr::compile(&net, opts).expect("library circuit compiles"));
        }
        lib
    });
    let ids: Vec<CircuitId> = lib.iter().map(|(id, _)| id).collect();
    let (tasks, mean_interarrival) = w.mix();
    let root = SimRng::new(seed);
    let instances = (0..w.instances())
        .map(|i| {
            let seed = root.derive(i as u64).next_u64();
            let specs = span::time("tenant_tasks", || {
                tenant_tasks(
                    &TenantMixParams {
                        base: MixParams {
                            tasks,
                            mean_interarrival,
                            mean_cpu_burst: SimDuration::from_millis(2),
                            fpga_ops_per_task: OPS_PER_TASK,
                            cycles: (10_000, 100_000),
                        },
                        tenants: TENANTS,
                        ..Default::default()
                    },
                    &ids,
                    &mut SimRng::new(seed),
                )
            });
            Instance { seed, specs }
        })
        .collect();
    Setup {
        lib: Arc::new(lib),
        instances,
    }
}

/// Check that the benchmark's library is the circuits `workload::suite`
/// builds for `Domain::ALL`: same names, shapes, and block counts, in
/// the same order. Returns a description of the first mismatch.
pub fn check_library(lib: &CircuitLib) -> Result<(), String> {
    let spec = timing().spec;
    let suites: Vec<_> = Domain::ALL
        .iter()
        .flat_map(|&d| workload::suite(d, spec.rows).apps)
        .collect();
    if suites.len() != lib.len() {
        return Err(format!(
            "library has {} circuits, Domain::ALL suites {}",
            lib.len(),
            suites.len()
        ));
    }
    for (app, (_, img)) in suites.iter().zip(lib.iter()) {
        let theirs = (
            app.name.as_str(),
            app.compiled.shape(),
            app.compiled.blocks(),
        );
        let ours = (img.name(), img.shape(), img.blocks());
        if theirs != ours {
            return Err(format!(
                "suite circuit {theirs:?} != library circuit {ours:?}"
            ));
        }
    }
    Ok(())
}

fn sys_config() -> SystemConfig {
    SystemConfig {
        preempt: PreemptAction::SaveRestore,
        ..Default::default()
    }
}

fn dynload_system(
    lib: &Arc<CircuitLib>,
    specs: Vec<TaskSpec>,
) -> System<DynLoadManager, RoundRobinScheduler> {
    span::time("System::new", || {
        System::new(
            lib.clone(),
            DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore),
            RoundRobinScheduler::new(SLICE),
            sys_config(),
            specs,
        )
    })
}

/// The reference configuration of the output check: one `System`,
/// dynamic loading, no checkpoints, no faults.
pub fn reference(lib: &Arc<CircuitLib>, inst: &Instance) -> Report {
    dynload_system(lib, inst.specs.clone())
        .run()
        .expect("reference run completes")
}

/// One run phase of instance `inst` over `specs` (a copy of its specs):
/// build the system(s) and run to completion. Returns the (fleet-merged)
/// report.
pub fn run(w: Workload, lib: &Arc<CircuitLib>, inst: &Instance, specs: Vec<TaskSpec>) -> Report {
    match w {
        Workload::DynloadBacklog => {
            let sys = dynload_system(lib, specs);
            span::time("System::run", || sys.run()).expect("dynload_backlog completes")
        }
        Workload::PartitionGc => {
            let sys = span::time("System::new", || {
                let mut mgr = PartitionManager::new(
                    lib.clone(),
                    timing(),
                    PartitionMode::Variable,
                    PreemptAction::SaveRestore,
                )
                .expect("variable partitioning needs no widths");
                mgr.gc_enabled = true;
                mgr.enable_delta();
                System::new(
                    lib.clone(),
                    mgr,
                    RoundRobinScheduler::new(SLICE),
                    sys_config(),
                    specs,
                )
            });
            span::time("System::run", || sys.run()).expect("partition_gc completes")
        }
        Workload::FleetCkpt => {
            let cfg = FleetConfig::new(4)
                .with_max_shards_per_device(4)
                // A shard with nowhere to go must show up as lost work,
                // not silently finish on a build the reference never ran.
                .without_software_fallback()
                .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(500)))
                .with_device_faults(DeviceFaultPlan {
                    seed: inst.seed ^ 0xF1EE7,
                    crash_rate_per_s: 2.0,
                    outage: SimDuration::from_millis(50),
                    max_crashes: 25,
                })
                .with_failover_retry(8, SimDuration::from_millis(25))
                .with_migrations(MigrationPlan {
                    seed: inst.seed ^ 0x516,
                    rate_per_s: 5.0,
                    max_migrations: 12,
                    delta_copy: false,
                    crash: None,
                });
            let fleet = span::time("run_fleet", || {
                run_fleet(&cfg, specs, |ctx| {
                    let _b = span::guard("shard_build");
                    Ok(dynload_system(lib, ctx.specs.to_vec()))
                })
            })
            .expect("fleet_ckpt completes");
            fleet.merged
        }
    }
}
