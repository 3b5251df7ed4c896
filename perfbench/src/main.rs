//! `vfpga-perfbench` — the repository benchmark.
//!
//! ```text
//! vfpga-perfbench --workload <dynload_backlog|partition_gc|fleet_ckpt>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. A run sets the workload up several times
//! (cold library compile + spec generation from `--seed`), runs the specs
//! once through the reference configuration, then repeats the workload's
//! run phase for `--seconds` seconds and checks every repetition against
//! the reference. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! splits the time between untraced and traced repetitions and reports
//! the per-layer metrics. Human-readable lines go first; the last line of
//! standard output is one JSON object.
//!
//! Host metrics are wall clock of this process, converted to a reference
//! host speed by a probe that brackets every timing (see [`normalize`]).
//! `sim_*` metrics are modelled device time, which is deterministic and
//! repeats exactly for a seed. The model is unvalidated: no error figure
//! is given.

mod layers;
mod workloads;

use fsim::span::{self, SpanProfile};
use layers::Metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vfpga::{diff_reports, Report};
use workloads::{Setup, Workload};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Wall time of [`probe_s`] on the reference host speed.
const PROBE_REF_S: f64 = 0.020;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Restart the kernel's peak-resident-set counter (`VmHWM`) at the
/// current resident set, so the next reading covers one run only.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset peak RSS via /proc/self/clear_refs");
}

/// Peak resident set since the last reset, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The four simulated outcomes; host-only changes must keep them
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sim {
    makespan_s: f64,
    overhead_frac: f64,
    turnaround_p50_ms: f64,
    turnaround_p99_ms: f64,
}

/// Nearest-rank quantile of a sorted slice.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Simulated outcomes of a run: makespan and overhead fraction are means
/// over the instances' reports, turnaround quantiles are over all their
/// tasks pooled.
fn sim_of(reports: &[Report]) -> Sim {
    let k = reports.len() as f64;
    let mut turn: Vec<_> = reports
        .iter()
        .flat_map(|r| r.tasks.iter().map(|t| t.turnaround()))
        .collect();
    turn.sort_unstable();
    Sim {
        makespan_s: reports
            .iter()
            .map(|r| r.makespan.as_secs_f64())
            .sum::<f64>()
            / k,
        overhead_frac: reports.iter().map(Report::overhead_fraction).sum::<f64>() / k,
        turnaround_p50_ms: quantile(&turn, 0.50).as_millis_f64(),
        turnaround_p99_ms: quantile(&turn, 0.99).as_millis_f64(),
    }
}

/// Tasks of `r` that fail the output check: a divergence from the
/// reference's timing-invariant outcomes, a non-success terminal state,
/// or accounted activity exceeding the turnaround. A report with the
/// wrong task count fails every task.
fn failures(reference: &Report, r: &Report, n_specs: usize) -> usize {
    if r.tasks.len() != n_specs || reference.tasks.len() != n_specs {
        return n_specs;
    }
    let mut bad = vec![false; n_specs];
    for d in diff_reports(reference, r) {
        if let Some(b) = bad.get_mut(d.task) {
            *b = true;
        }
    }
    for (b, t) in bad.iter_mut().zip(&r.tasks) {
        *b |= t.failed
            || t.quarantined
            || t.rejected
            || t.unschedulable
            || t.corrupted
            || t.lost_in_flight
            || t.waiting_checked().is_none();
    }
    bad.iter().filter(|&&b| b).count()
}

/// Host speed probe: a fixed amount of work that does not depend on the
/// program under test but stresses what it does most: allocation, an
/// ordered-map build, a sort, and number formatting and parsing. Returns
/// its wall time in seconds.
fn probe_s() -> f64 {
    const N: u64 = 50_000;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut v = Vec::with_capacity(N as usize);
    for i in 0..N {
        let r = next();
        map.insert(r % (4 * N), i);
        v.push(r);
    }
    v.sort_unstable();
    let mut text = String::new();
    for _ in 0..40_000 {
        let r = next();
        let _ = write!(
            text,
            "{{\"k\": {}, \"v\": [{}, {}]}},",
            r % 1000,
            r >> 40,
            r as f64 / 7.0
        );
    }
    let parsed = text
        .split(',')
        .filter_map(|t| {
            t.trim_matches(|c: char| !c.is_ascii_digit())
                .parse::<u64>()
                .ok()
        })
        .count();
    std::hint::black_box((map.len(), v[v.len() / 2], parsed));
    t0.elapsed().as_secs_f64()
}

/// Converts timings taken between `probes[i]` and `probes[i + 1]` into
/// reference-speed seconds: the seconds they would have taken on a host
/// where the probe takes `PROBE_REF_S`. A shared virtual machine can
/// change speed by 2x over minutes, which raw wall clock cannot tell
/// apart from a change to the program.
fn normalize(times: &[f64], probes: &[f64]) -> Vec<f64> {
    times
        .iter()
        .zip(probes.windows(2))
        .map(|(t, p)| t * PROBE_REF_S / ((p[0] + p[1]) / 2.0))
        .collect()
}

/// One run-phase repetition (one instance, run to completion).
struct Rep {
    wall_s: f64,
    peak_rss_mib: f64,
}

/// What one timed loop measured.
struct Timed {
    reps: Vec<Rep>,
    /// Host speed probes: one before the first repetition and one after
    /// each.
    probes: Vec<f64>,
    profile: SpanProfile,
    /// The first pass: one report per instance, instance order.
    reports: Vec<Report>,
    attempted: usize,
    failed: usize,
    /// Every later pass reproduced the first pass's simulated outcomes.
    repeatable: bool,
}

/// Repeat the run phase in whole passes over the instances until `budget`
/// has passed, so every instance weighs the same in the medians. With
/// `traced`, every repetition records spans into one merged profile.
fn timed_loop(w: Workload, s: &Setup, refs: &[Report], budget: Duration, traced: bool) -> Timed {
    let k = s.instances.len();
    let mut t = Timed {
        reps: Vec::new(),
        probes: vec![probe_s()],
        profile: SpanProfile::new(),
        reports: Vec::with_capacity(k),
        attempted: 0,
        failed: 0,
        repeatable: true,
    };
    let start = Instant::now();
    while t.reps.is_empty() || !t.reps.len().is_multiple_of(k) || start.elapsed() < budget {
        let i = t.reps.len() % k;
        let inst = &s.instances[i];
        let specs = inst.specs.clone();
        reset_peak_rss();
        let ((report, wall), prof) = if traced {
            span::scoped(|| {
                let t0 = Instant::now();
                let r = workloads::run(w, &s.lib, inst, specs);
                (r, t0.elapsed())
            })
        } else {
            let t0 = Instant::now();
            let r = workloads::run(w, &s.lib, inst, specs);
            ((r, t0.elapsed()), SpanProfile::new())
        };
        let peak_rss_mib = peak_rss_mib();
        t.profile.merge(&prof);
        t.reps.push(Rep {
            wall_s: wall.as_secs_f64(),
            peak_rss_mib,
        });
        t.probes.push(probe_s());
        t.attempted += inst.specs.len();
        t.failed += failures(&refs[i], &report, inst.specs.len());
        if t.reports.len() < k {
            t.reports.push(report);
        } else {
            let first = &t.reports[i];
            t.repeatable &=
                sim_of(std::slice::from_ref(first)) == sim_of(std::slice::from_ref(&report));
        }
    }
    t
}

/// Median over passes of tasks per reference-speed second, where a pass
/// runs every instance once. A pass is the workload's unit of work:
/// instances differ in how much host work their seeds make.
fn tasks_per_s(t: &Timed, tasks: usize, instances: usize) -> f64 {
    let walls: Vec<f64> = t.reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = normalize(&walls, &t.probes)
        .chunks(instances)
        .map(|pass| (tasks * pass.len()) as f64 / pass.iter().sum::<f64>())
        .collect();
    median(&rates)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("vfpga-perfbench: {e}");
        eprintln!(
            "usage: vfpga-perfbench --workload <dynload_backlog|partition_gc|fleet_ckpt> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let w = args.workload;

    // Set-up, several times cold; the last one is used.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut setup_probes = vec![probe_s()];
    let mut setup_profile = SpanProfile::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (s, prof) = if args.trace {
            span::scoped(|| workloads::setup(w, args.seed))
        } else {
            (workloads::setup(w, args.seed), SpanProfile::new())
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        setup_probes.push(probe_s());
        setup_profile.merge(&prof);
        setup = Some(s);
    }
    let setup = setup.expect("SETUP_REPS is at least 1");
    if let Err(e) = workloads::check_library(&setup.lib) {
        eprintln!("vfpga-perfbench: benchmark library drifted from workload::suite: {e}");
        std::process::exit(1);
    }
    let n = setup.instances[0].specs.len();
    let refs: Vec<Report> = setup
        .instances
        .iter()
        .map(|inst| workloads::reference(&setup.lib, inst))
        .collect();

    let budget = Duration::from_secs(args.seconds);
    let mut metrics: Metrics = Vec::new();
    let untraced = timed_loop(
        w,
        &setup,
        &refs,
        if args.trace { budget / 2 } else { budget },
        false,
    );
    let k = setup.instances.len();
    let untraced_tps = tasks_per_s(&untraced, n, k);
    let sim = sim_of(&untraced.reports);
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut repeatable = untraced.repeatable;

    if args.trace {
        let traced = timed_loop(w, &setup, &refs, budget / 2, true);
        attempted += traced.attempted;
        failed += traced.failed;
        // Tracing must not perturb the simulation.
        repeatable &= traced.repeatable && sim_of(&traced.reports) == sim;
        let wall_ms: f64 = traced.reps.iter().map(|r| r.wall_s * 1e3).sum();
        layers::setup_metrics(&setup_profile, SETUP_REPS, &mut metrics);
        layers::run_metrics(
            &traced.profile,
            traced.reps.len(),
            wall_ms,
            &traced.reports,
            &mut metrics,
        );
        layers::micro(&setup.lib, &workloads::timing().spec, &mut metrics);
        metrics.push(("host.probe_ms".into(), median(&untraced.probes) * 1e3, "ms"));
        metrics.push((
            "trace.overhead_frac".into(),
            1.0 - tasks_per_s(&traced, n, k) / untraced_tps,
            "ratio",
        ));
    } else {
        let rss: Vec<f64> = untraced.reps.iter().map(|r| r.peak_rss_mib).collect();
        metrics.push(("tasks_per_s".into(), untraced_tps, "tasks/s"));
        metrics.push((
            "setup_s".into(),
            median(&normalize(&setup_times, &setup_probes)),
            "s",
        ));
        metrics.push(("peak_rss_mb".into(), median(&rss), "MiB"));
        metrics.push((
            "ok_frac".into(),
            1.0 - failed as f64 / attempted as f64,
            "ratio",
        ));
        metrics.push(("sim_makespan_s".into(), sim.makespan_s, "s"));
        metrics.push(("sim_overhead_frac".into(), sim.overhead_frac, "ratio"));
        metrics.push(("sim_turnaround_p50_ms".into(), sim.turnaround_p50_ms, "ms"));
        metrics.push(("sim_turnaround_p99_ms".into(), sim.turnaround_p99_ms, "ms"));
    }
    if !repeatable {
        eprintln!("vfpga-perfbench: simulated outcomes differ between repetitions of a seed");
    }
    let correct = failed == 0 && repeatable && metrics.iter().all(|(_, v, _)| v.is_finite());

    println!(
        "workload {} seed {}: {} instances x {n} tasks, {} tenants, {} FPGA ops/task; \
         {attempted} tasks attempted, {failed} failed",
        w.name(),
        args.seed,
        setup.instances.len(),
        workloads::TENANTS,
        workloads::OPS_PER_TASK,
    );
    let raw: Vec<f64> = untraced.reps.iter().map(|r| n as f64 / r.wall_s).collect();
    println!(
        "host speed probe median {:.3} ms (reference {:.3} ms); unnormalized tasks/s {:.1}",
        median(&untraced.probes) * 1e3,
        PROBE_REF_S * 1e3,
        median(&raw)
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{name:<36} {value:>16.6} {unit}");
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}
