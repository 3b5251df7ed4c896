//! Per-layer numbers of the traced run: span times folded into the
//! layers they belong to, deterministic counts from the public `Report`,
//! and a micro pass over the library's own circuits for the two costs
//! spans cannot separate from `system;timer` (routing and frame diffs).

use fsim::span::{SpanProfile, PATH_SEP};
use std::time::Instant;
use vfpga::{CircuitLib, Report};

/// Named metric values with their units, in report order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Event kinds the `System` loop spans (`system;<kind>`).
const EVENT_KINDS: [&str; 9] = [
    "arrive",
    "dispatch",
    "timer",
    "seu",
    "scrub",
    "column_fail",
    "retry_done",
    "checkpoint",
    "watchdog",
];

/// Totals over every span path ending in `suffix` (a `;`-joined tail).
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub excl_ns: u64,
}

impl Agg {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn excl_ms(&self) -> f64 {
        self.excl_ns as f64 / 1e6
    }
}

pub fn agg(p: &SpanProfile, suffix: &str) -> Agg {
    let mut a = Agg::default();
    for (path, s) in p.iter() {
        let tail_match = path
            .strip_suffix(suffix)
            .is_some_and(|head| head.is_empty() || head.ends_with(PATH_SEP));
        if tail_match {
            a.count += s.count;
            a.total_ns += s.total_ns;
            a.excl_ns += s.exclusive_ns();
        }
    }
    a
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up layers, averaged over the set-up repetitions of a profile.
pub fn setup_metrics(p: &SpanProfile, reps: usize, out: &mut Metrics) {
    let per = |a: Agg| a.total_ms() / reps as f64;
    out.push(("workload.gen_ms".into(), per(agg(p, "tenant_tasks")), "ms"));
    out.push((
        "pnr.compile_ms".into(),
        per(agg(p, "compile_library")),
        "ms",
    ));
    for phase in ["map", "pack", "place", "timing"] {
        let a = agg(p, &format!("pnr;{phase}"));
        out.push((format!("pnr.{phase}_ms"), per(a), "ms"));
    }
}

/// Run-phase layers of `reps` traced runs whose wall time summed to
/// `wall_ms`. Counts are means over `reports`, one report per instance
/// (deterministic); times are means per traced run.
pub fn run_metrics(
    p: &SpanProfile,
    reps: usize,
    wall_ms: f64,
    reports: &[Report],
    out: &mut Metrics,
) {
    let n = reps as f64;
    let k = reports.len() as f64;
    let mean = |f: &dyn Fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() / k;
    let sum = |f: &dyn Fn(&Report) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let mut push = |name: &str, v: f64, unit: &'static str| out.push((name.into(), v, unit));

    // vfpga::manager — deterministic counts.
    let m = |f: fn(&vfpga::ManagerStats) -> u64| sum(&|r: &Report| f(&r.manager_stats)) / k;
    push("vfpga.manager.downloads", m(|m| m.downloads), "count");
    push("vfpga.manager.relocations", m(|m| m.relocations), "count");
    push("vfpga.manager.gc_runs", m(|m| m.gc_runs), "count");
    push("vfpga.manager.evictions", m(|m| m.evictions), "count");
    push("vfpga.manager.blocks", m(|m| m.blocks), "count");
    push("vfpga.manager.state_saves", m(|m| m.state_saves), "count");
    push(
        "vfpga.manager.hit_ratio",
        ratio(m(|m| m.hits), m(|m| m.hits + m.misses)),
        "ratio",
    );
    push(
        "vfpga.manager.config_sim_ms",
        mean(&|r: &Report| r.manager_stats.config_time.as_millis_f64()),
        "ms",
    );
    let d = |f: fn(&vfpga::manager::DeltaStats) -> u64| {
        sum(&|r: &Report| r.delta.as_ref().map_or(0, f)) / k
    };
    push(
        "vfpga.manager.delta_ratio",
        ratio(
            d(|d| d.delta_downloads),
            d(|d| d.delta_downloads + d.full_downloads),
        ),
        "ratio",
    );
    push(
        "vfpga.manager.delta_invalidations",
        d(|d| d.invalidations),
        "count",
    );

    // vfpga::system — the event loop, one self time per event kind.
    let new = agg(p, "System::new");
    let system = agg(p, "system");
    let kind = |k: &str| agg(p, &format!("system;{k}"));
    let (arrive, dispatch, timer) = (kind("arrive"), kind("dispatch"), kind("timer"));
    let events: u64 = EVENT_KINDS.iter().map(|k| kind(k).count).sum();
    push("vfpga.system.new_ms", new.total_ms() / n, "ms");
    push("vfpga.system.run_ms", system.total_ms() / n, "ms");
    push("vfpga.system.loop_ms", system.excl_ms() / n, "ms");
    push("vfpga.system.arrive_ms", arrive.excl_ms() / n, "ms");
    push("vfpga.system.dispatch_ms", dispatch.excl_ms() / n, "ms");
    push("vfpga.system.timer_ms", timer.excl_ms() / n, "ms");
    push("vfpga.system.events", events as f64 / n, "count");
    push(
        "vfpga.system.us_per_event",
        ratio(system.total_ms() * 1e3, events as f64),
        "us",
    );

    // vfpga::checkpoint — the capture event handler, inclusive of the
    // image build it times as `capture`.
    let ckpt = kind("checkpoint");
    push("vfpga.checkpoint.capture_ms", ckpt.total_ms() / n, "ms");
    push(
        "vfpga.checkpoint.captures",
        sum(&|r: &Report| r.crash.checkpoints) / k,
        "count",
    );
    push(
        "vfpga.checkpoint.capture_us_per",
        ratio(ckpt.total_ms() * 1e3, ckpt.count as f64),
        "us",
    );

    // vfpga::fleet (restore path) and vfpga::migrate.
    let f = |g: fn(&vfpga::FleetStats) -> u64| sum(&|r: &Report| r.fleet.as_ref().map_or(0, g)) / k;
    let failover = agg(p, "failover");
    let restore = agg(p, "restore");
    let migrate_in = agg(p, "migrate_in");
    let fleet = agg(p, "run_fleet");
    let build = agg(p, "shard_build");
    push("vfpga.fleet.failover_ms", failover.total_ms() / n, "ms");
    push("vfpga.fleet.failovers", f(|f| f.failovers), "count");
    push(
        "vfpga.fleet.device_crashes",
        f(|f| f.device_crashes),
        "count",
    );
    push(
        "vfpga.fleet.redo_sim_ms",
        mean(&|r: &Report| r.fleet.map_or(0.0, |f| f.redo_time.as_millis_f64())),
        "ms",
    );
    push(
        "vfpga.migrate.migrate_in_ms",
        migrate_in.total_ms() / n,
        "ms",
    );
    // `restore_from` of the source remainder when a migration cuts it.
    push("vfpga.migrate.restore_ms", restore.total_ms() / n, "ms");
    push(
        "vfpga.migrate.migrations",
        f(|f| f.tenant_migrations),
        "count",
    );
    push("vfpga.migrate.aborts", f(|f| f.migration_aborts), "count");
    push("vfpga.fleet.self_ms", fleet.excl_ms() / n, "ms");
    push(
        "vfpga.fleet.segments",
        agg(p, "run_fleet;system").count as f64 / n,
        "count",
    );
    push("vfpga.fleet.build_ms", build.excl_ms() / n, "ms");

    // Share of the run phase the self times above account for. Each
    // term is disjoint: exclusive times, plus handlers whose only
    // children are program spans no other term counts.
    let attributed = new.total_ns
        + system.excl_ns
        + arrive.excl_ns
        + dispatch.excl_ns
        + timer.excl_ns
        + ckpt.total_ns
        + failover.total_ns
        + restore.total_ns
        + migrate_in.total_ns
        + fleet.excl_ns
        + build.excl_ns;
    push(
        "trace.coverage_frac",
        ratio(attributed as f64 / 1e6, wall_ms),
        "ratio",
    );
}

/// Micro pass over the library: mean `route_circuit` time on an empty
/// fabric of the target device (mean over circuits of each circuit's
/// mean), and mean `Bitstream::diff` time over every ordered pair of
/// distinct circuits' emitted images.
pub fn micro(lib: &CircuitLib, spec: &fpga::DeviceSpec, out: &mut Metrics) {
    const ROUTE_REPS: u32 = 50;
    const DIFF_REPS: u32 = 10;
    let mut fabric = pnr::RoutingFabric::for_device(spec);
    let mut route_mean_us = 0.0;
    for (_, img) in lib.iter() {
        let mut ns = 0u128;
        for _ in 0..ROUTE_REPS {
            let t0 = Instant::now();
            let routes = fabric
                .route_circuit(std::hint::black_box(&img.compiled.placed), (0, 0))
                .expect("every library circuit routes on an empty fabric");
            ns += t0.elapsed().as_nanos();
            fabric.release(&routes);
        }
        route_mean_us += ns as f64 / 1e3 / f64::from(ROUTE_REPS);
    }
    out.push((
        "pnr.route_us".into(),
        route_mean_us / lib.len() as f64,
        "us",
    ));

    let images: Vec<fpga::Bitstream> = lib
        .iter()
        .map(|(_, img)| {
            let c = &img.compiled;
            let pins = pnr::PinAssignment::contiguous(
                c.placed.circuit.num_inputs,
                c.placed.circuit.outputs.len(),
            );
            pnr::emit_bitstream(&c.placed, (0, 0), &pins, false)
        })
        .collect();
    let mut ns = 0u128;
    let mut diffs = 0u64;
    for _ in 0..DIFF_REPS {
        for (i, a) in images.iter().enumerate() {
            for (j, b) in images.iter().enumerate() {
                if i != j {
                    let t0 = Instant::now();
                    std::hint::black_box(fpga::Bitstream::diff(a, b));
                    ns += t0.elapsed().as_nanos();
                    diffs += 1;
                }
            }
        }
    }
    out.push((
        "fpga.diff_us".into(),
        ns as f64 / 1e3 / diffs.max(1) as f64,
        "us",
    ));
}
