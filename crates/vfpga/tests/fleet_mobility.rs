//! Tenant mobility through `System::adopt`.
//!
//! 1. A tenant adopted onto a new device, and cut there again before that
//!    device's next capture, restores from the image taken *before* the
//!    move. Adopting it once more must not revive the tenant that stayed
//!    behind, and the moved tenant's outcomes must match the uncut run.
//!    Every traced instant of that window is a cut point.
//! 2. A fleet with checkpoints, device crashes and live migrations at
//!    once (failovers then restore pre-migration images) loses no work
//!    and matches the single-device run. `run_fleet` checks after every
//!    adopt, in debug builds, that no shard runs a tenant it gave away.

use fsim::{SimDuration, SimRng, SimTime, TraceEvent};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use vfpga::circuit::{CircuitId, CircuitLib};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::PreemptAction;
use vfpga::sched::RoundRobinScheduler;
use vfpga::system::{System, SystemConfig};
use vfpga::task::{Op, TaskSpec};
use vfpga::{
    diff_reports, run_fleet, CheckpointConfig, CrashState, DeviceFaultPlan, FleetConfig,
    FpgaManager, MigrationPlan, Report, RunOutcome, SystemImage,
};

type Sys = System<DynLoadManager, RoundRobinScheduler>;
type State =
    CrashState<SystemImage<<DynLoadManager as FpgaManager>::Snapshot, RoundRobinScheduler>>;

/// Three small circuits, compiled once per test binary.
fn lib3() -> (Arc<CircuitLib>, Vec<CircuitId>) {
    use pnr::{compile, CompileOptions};
    static LIB: OnceLock<(Arc<CircuitLib>, Vec<CircuitId>)> = OnceLock::new();
    LIB.get_or_init(|| {
        let mut lib = CircuitLib::new();
        let ids = [
            netlist::library::arith::ripple_adder("add", 8),
            netlist::library::logic::parity("par", 12),
            netlist::library::seq::counter("ctr", 12),
        ]
        .iter()
        .map(|n| lib.register_compiled(compile(n, CompileOptions::default()).unwrap()))
        .collect();
        (Arc::new(lib), ids)
    })
    .clone()
}

fn timing() -> fpga::ConfigTiming {
    fpga::ConfigTiming {
        spec: fpga::device::part("VF400"),
        port: fpga::ConfigPort::SerialFast,
    }
}

/// A dynamically loaded device running `specs` round robin, with
/// checkpoints when `ckpt` is set.
fn system(specs: &[TaskSpec], ckpt: Option<CheckpointConfig>) -> Sys {
    let (lib, _) = lib3();
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
    let sys = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(2)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        specs.to_vec(),
    );
    match ckpt {
        Some(c) => sys.with_checkpoints(c).unwrap(),
        None => sys,
    }
}

/// `n` tasks over `tenants` tenants (round robin), Poisson arrivals with
/// mean gap `gap`, two CPU and two FPGA bursts each.
fn tasks(seed: u64, n: u32, tenants: u32, gap: SimDuration) -> Vec<TaskSpec> {
    let (_, ids) = lib3();
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    (0..n)
        .map(|i| {
            at += SimDuration::from_nanos(rng.exp(gap.as_nanos() as f64) as u64);
            let mut fpga = || Op::FpgaRun {
                circuit: *rng.choose(&ids),
                cycles: rng.range_u64(20_000, 80_000),
            };
            let ops = vec![
                Op::Cpu(SimDuration::from_micros(100)),
                fpga(),
                Op::Cpu(SimDuration::from_micros(50)),
                fpga(),
            ];
            TaskSpec::new(format!("t{i}"), at, ops).with_tenant(i % tenants)
        })
        .collect()
}

fn finish(sys: Sys) -> (Report, fsim::Trace) {
    match sys.run_until(None).unwrap() {
        RunOutcome::Completed(r, t) => (*r, t),
        RunOutcome::Crashed(_) => unreachable!("no crash scheduled"),
    }
}

fn cut(sys: Sys, at: SimTime) -> Option<State> {
    match sys.run_until(Some(at)).unwrap() {
        RunOutcome::Crashed(state) => Some(*state),
        RunOutcome::Completed(..) => None,
    }
}

/// `r`'s rows of `tenant`'s tasks, as a report `diff_reports` can take.
fn rows_of(r: &Report, specs: &[TaskSpec], tenant: u32) -> Report {
    Report {
        tasks: r
            .tasks
            .iter()
            .zip(specs)
            .filter(|(_, s)| s.tenant == tenant)
            .map(|(m, _)| m.clone())
            .collect(),
        ..Default::default()
    }
}

#[test]
fn readopting_a_moved_tenant_never_revives_the_one_left_behind() {
    let specs = tasks(7, 16, 2, SimDuration::from_micros(300));
    let baseline = system(&specs, None).run().unwrap();
    let want = rows_of(&baseline, &specs, 0);
    let interval = baseline.makespan / 5;
    let cfg = Some(CheckpointConfig::new(interval));

    // The move: cut the two-tenant system after its first capture and
    // adopt tenant 0 alone onto a fresh device.
    let state = cut(system(&specs, cfg), SimTime::ZERO + interval + interval / 2).unwrap();
    let image_at = state.image.as_ref().expect("one capture before the cut").at;
    let mut both = system(&specs, cfg);
    both.adopt(&state, &[0, 1]).unwrap();
    assert!(both.live_tasks_of(1) > 0, "the image holds tenant 1 live");

    let mut dst = system(&specs, cfg).with_trace();
    dst.adopt(&state, &[0]).unwrap();
    assert_eq!(dst.live_tasks_of(1), 0);
    let (moved, trace) = finish(dst);
    let d = diff_reports(&want, &rows_of(&moved, &specs, 0));
    assert!(d.is_empty(), "the move changed tenant 0: {d:?}");

    // Cut the destination at every traced instant up to its first own
    // capture, and 1 ns after each, then adopt tenant 0 again.
    let next_capture = trace
        .entries()
        .find(|e| matches!(e.event, TraceEvent::CheckpointTaken { .. }))
        .map_or(SimTime::ZERO + moved.makespan, |e| e.at);
    let points: BTreeSet<SimTime> = trace
        .entries()
        .map(|e| e.at)
        .filter(|&at| at <= next_capture)
        .flat_map(|at| [at, at + SimDuration::from_nanos(1)])
        .collect();
    let mut pre_move_images = 0;
    for &t in &points {
        let mut dst = system(&specs, cfg);
        dst.adopt(&state, &[0]).unwrap();
        let Some(state2) = cut(dst, t) else { continue };
        if state2.image.as_ref().map(|i| i.at) == Some(image_at) {
            pre_move_images += 1;
        }
        let mut again = system(&specs, cfg);
        again.adopt(&state2, &[0]).unwrap();
        assert_eq!(again.live_tasks_of(1), 0, "cut at {t} revived tenant 1");
        let (r, _) = finish(again);
        let d = diff_reports(&want, &rows_of(&r, &specs, 0));
        assert!(d.is_empty(), "cut at {t} changed tenant 0: {d:?}");
    }
    assert!(
        pre_move_images > 10,
        "only {pre_move_images} cuts restored the pre-move image"
    );
}

#[test]
fn fleet_with_device_faults_and_migrations_matches_one_device() {
    let specs = tasks(11, 240, 8, SimDuration::from_micros(250));
    let single = system(&specs, None).run().unwrap();
    let cfg = FleetConfig::new(4)
        .with_max_shards_per_device(4)
        .without_software_fallback()
        .with_checkpoints(CheckpointConfig::new(single.makespan / 12))
        .with_device_faults(DeviceFaultPlan {
            seed: 0xF1EE7,
            crash_rate_per_s: 60.0,
            outage: SimDuration::from_millis(1),
            max_crashes: 6,
        })
        .with_failover_retry(8, SimDuration::from_micros(500))
        .with_migrations(MigrationPlan {
            seed: 0x516,
            rate_per_s: 150.0,
            max_migrations: 8,
            delta_copy: false,
            crash: None,
        });
    let fleet = run_fleet(&cfg, specs.clone(), |ctx| Ok(system(ctx.specs, None))).unwrap();
    let s = fleet.stats;
    assert!(
        s.failovers + s.rebalances > 0,
        "no device fault moved a shard"
    );
    assert!(s.tenant_migrations > 0, "no tenant migrated");
    assert_eq!(s.lost_in_flight, 0);
    let d = diff_reports(&single, &fleet.merged);
    assert!(d.is_empty(), "fleet diverged from one device: {d:?}");
}
