//! The pinned host-performance suite behind `bench_perf`.
//!
//! [`run_suite`] executes a fixed set of micro- and macro-benchmarks —
//! compile cold/warm through the shared cache, full/partial configuration
//! download, checkpointed crash/replay, and a profiled sweep-engine
//! macro workload — and renders one `BENCH_<git-short-sha>.json` document
//! in the stable [`PERF_SCHEMA`] layout. That file is the repo's perf
//! trajectory: [`compare`] diffs two of them and flags wall-clock
//! regressions beyond a noise tolerance.
//!
//! Layout discipline mirrors the experiment exports: everything outside
//! the `host` section is **deterministic** — the `sim` section holds
//! simulated-time latency quantiles and `system;…` span *counts* that are
//! byte-identical at any `--threads` value, so the existing `jdiff`
//! volatile-section strip doubles as the thread-identity CI gate. All
//! wall-clock data (case timings, span durations, cache hit rates) lives
//! under `host`.

use crate::engine::run_sweep;
use crate::json::{Json, Obj};
use crate::report::Table;
use fpga::{ConfigPort, ConfigTiming, Device};
use fsim::span::{self, SpanProfile};
use fsim::{HistSet, LogHistogram, SimDuration, SimRng};
use std::time::Instant;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{
    run_fleet, run_with_crashes, CheckpointConfig, CrashPlan, DeviceId, FleetConfig, MigrationPlan,
    PreemptAction, RoundRobinScheduler, RunOutcome, System, SystemConfig,
};
use workload::{poisson_tasks, Domain, MixParams};

/// Schema identifier written into every perf document. Bump the suffix on
/// any layout change — [`compare`] refuses mixed-schema comparisons.
pub const PERF_SCHEMA: &str = "vfpga-bench-perf/1";

/// The repository's short commit hash, or `"unknown"` outside a git
/// checkout — used for the default `BENCH_<sha>.json` file name and
/// stamped into the document.
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Suite sizing: `--smoke` shrinks every case to CI scale.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Worker threads for the macro sweep.
    pub threads: usize,
    /// CI-sized variant.
    pub smoke: bool,
}

impl PerfConfig {
    fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Wall-clock stats for one timed case.
fn case_json(iters: u64, h: &LogHistogram) -> Json {
    Obj::new()
        .set("iters", iters)
        .set("mean_ns", h.mean_ns())
        .set("min_ns", h.min_ns())
        .set("p50_ns", h.quantile_ns(0.50))
        .set("p90_ns", h.quantile_ns(0.90))
        .set("p99_ns", h.quantile_ns(0.99))
        .set("max_ns", h.max_ns())
        .build()
}

/// Deterministic quantile summary of one simulated-time latency series.
fn sim_hist_json(h: &LogHistogram) -> Json {
    Obj::new()
        .set("count", h.count())
        .set("mean_ns", h.mean_ns())
        .set("min_ns", h.min_ns())
        .set("p50_ns", h.quantile_ns(0.50))
        .set("p90_ns", h.quantile_ns(0.90))
        .set("p99_ns", h.quantile_ns(0.99))
        .set("max_ns", h.max_ns())
        .build()
}

fn time_iters(iters: u64, mut f: impl FnMut()) -> LogHistogram {
    let mut h = LogHistogram::new();
    // One warm-up run keeps first-touch costs (lazy statics, page faults)
    // out of the distribution.
    f();
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        h.record(t0.elapsed().as_nanos() as u64);
    }
    h
}

struct Case {
    name: &'static str,
    iters: u64,
    hist: LogHistogram,
}

/// One macro sweep point: a checkpointed multi-tenant workload run with
/// latency profiling and span recording on. Returns the simulated-time
/// latency set, the span profile, and the point's wall time.
fn macro_point(
    lib: &std::sync::Arc<vfpga::CircuitLib>,
    ids: &[vfpga::CircuitId],
    timing: ConfigTiming,
    seed: u64,
) -> (HistSet, SpanProfile, u64) {
    let t0 = Instant::now();
    let (lat, prof) = span::scoped(|| {
        let mut rng = SimRng::new(seed);
        let specs: Vec<_> = poisson_tasks(
            &MixParams {
                tasks: 8,
                mean_interarrival: SimDuration::from_millis(2),
                mean_cpu_burst: SimDuration::from_millis(2),
                fpga_ops_per_task: 4,
                cycles: (60_000, 250_000),
            },
            ids,
            &mut rng,
        )
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.with_tenant(i as u32 % 3))
        .collect();
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
        let r = System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(10)),
            SystemConfig {
                preempt: PreemptAction::SaveRestore,
                ..Default::default()
            },
            specs,
        )
        .with_latency_profile()
        .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(5)))
        .expect("dynload manager snapshots")
        .run()
        .expect("macro point must complete");
        r.latency.expect("latency profiling was enabled")
    });
    (lat, prof, t0.elapsed().as_nanos() as u64)
}

/// Run the pinned suite and build the perf document. Also returns the
/// merged span profile so the caller can render the span tree /
/// collapsed-stack view without re-running anything.
pub fn run_suite(cfg: PerfConfig) -> (Json, SpanProfile, Table) {
    let spec = fpga::device::part("VF400");
    let timing = ConfigTiming {
        spec,
        port: ConfigPort::SerialFast,
    };
    let mut cases: Vec<Case> = Vec::new();
    let mut spans = SpanProfile::new();

    // --- compile cold/warm -------------------------------------------------
    // Cold compiles bypass the process cache by calling the flow directly;
    // the first scoped run also contributes the `pnr;…` span tree.
    let net = netlist::library::alu::alu("alu8", 8);
    let (_, compile_prof) =
        span::scoped(|| pnr::compile(&net, pnr::CompileOptions::default()).expect("alu8 compiles"));
    spans.merge(&compile_prof);
    let iters = if cfg.smoke { 3 } else { 10 };
    let hist = time_iters(iters, || {
        let c = pnr::compile(&net, pnr::CompileOptions::default()).expect("alu8 compiles");
        std::hint::black_box(c.blocks());
    });
    cases.push(Case {
        name: "compile_cold",
        iters,
        hist,
    });

    let iters = if cfg.smoke { 50 } else { 500 };
    let hist = time_iters(iters, || {
        let c = pnr::compile_shared(&net, pnr::CompileOptions::default()).expect("alu8 compiles");
        std::hint::black_box(c.blocks());
    });
    cases.push(Case {
        name: "compile_warm",
        iters,
        hist,
    });

    // Disk-warm compiles bypass the process table and load the artifact
    // from a scratch on-disk cache: strictly cheaper than the cold flow,
    // dearer than the in-process table.
    let disk_dir =
        std::env::temp_dir().join(format!("vfpga-bench-perf-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let iters = if cfg.smoke { 10 } else { 100 };
    let hist = time_iters(iters, || {
        let c = pnr::compile_with_disk(&net, pnr::CompileOptions::default(), &disk_dir)
            .expect("alu8 compiles");
        std::hint::black_box(c.blocks());
    });
    let _ = std::fs::remove_dir_all(&disk_dir);
    cases.push(Case {
        name: "compile_disk_warm",
        iters,
        hist,
    });

    // --- full / partial download -------------------------------------------
    let placed = pnr::compile(&net, pnr::CompileOptions::default()).expect("alu8 compiles");
    let pins = pnr::PinAssignment::contiguous(
        placed.placed.circuit.num_inputs,
        placed.placed.circuit.outputs.len(),
    );
    let bs_full = pnr::emit_bitstream(&placed.placed, (0, 0), &pins, true);
    let bs_partial = pnr::emit_bitstream(&placed.placed, (0, 0), &pins, false);
    let iters = if cfg.smoke { 10 } else { 100 };
    let mut dev = Device::new(spec, ConfigPort::SerialFast);
    let hist = time_iters(iters, || {
        let d = dev.apply(&bs_full).expect("full download applies");
        std::hint::black_box(d);
    });
    cases.push(Case {
        name: "download_full",
        iters,
        hist,
    });
    let hist = time_iters(iters, || {
        let d = dev.apply(&bs_partial).expect("partial download applies");
        std::hint::black_box(d);
    });
    cases.push(Case {
        name: "download_partial",
        iters,
        hist,
    });

    // Delta download: the device holds a 50%-similar variant of the
    // circuit, so the diff stream rewrites only the mutated columns —
    // this case must beat `download_full` (acceptance gate).
    let variant = pnr::mutate_tables(&placed, 0.5, 0xD17A);
    let bs_variant = pnr::emit_bitstream(&variant.placed, (0, 0), &pins, false);
    let delta = fpga::Bitstream::diff(&bs_variant, &bs_partial);
    dev.apply(&bs_variant).expect("variant download applies");
    let hist = time_iters(iters, || {
        let d = dev.apply(&delta.stream).expect("delta download applies");
        std::hint::black_box(d);
    });
    cases.push(Case {
        name: "download_delta",
        iters,
        hist,
    });

    // --- checkpointed crash/replay -----------------------------------------
    let (lib, ids) = crate::setup::compile_suite_lib(&[Domain::Telecom], spec);
    let iters = if cfg.smoke { 2 } else { 5 };
    let hist = time_iters(iters, || {
        let lib = lib.clone();
        let ids = ids.clone();
        let build = move || {
            let mut rng = SimRng::new(0xBE7C);
            let specs = poisson_tasks(
                &MixParams {
                    tasks: 6,
                    mean_interarrival: SimDuration::from_millis(2),
                    mean_cpu_burst: SimDuration::from_millis(2),
                    fpga_ops_per_task: 3,
                    cycles: (60_000, 200_000),
                },
                &ids,
                &mut rng,
            );
            let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
            System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(SimDuration::from_millis(10)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                specs,
            )
        };
        let (r, _) = run_with_crashes(
            build,
            CheckpointConfig::new(SimDuration::from_millis(5)),
            CrashPlan {
                seed: 0xC4A5,
                crash_rate_per_s: 20.0,
                max_crashes: 2,
            },
        )
        .expect("crash/replay run completes");
        std::hint::black_box(r.makespan);
    });
    cases.push(Case {
        name: "ckpt_crash_replay",
        iters,
        hist,
    });

    // The same crash/replay workload under delta capture (full anchor
    // every 4th image): identical outcomes, less simulated readback.
    let hist = time_iters(iters, || {
        let lib = lib.clone();
        let ids = ids.clone();
        let build = move || {
            let mut rng = SimRng::new(0xBE7C);
            let specs = poisson_tasks(
                &MixParams {
                    tasks: 6,
                    mean_interarrival: SimDuration::from_millis(2),
                    mean_cpu_burst: SimDuration::from_millis(2),
                    fpga_ops_per_task: 3,
                    cycles: (60_000, 200_000),
                },
                &ids,
                &mut rng,
            );
            let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
            System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(SimDuration::from_millis(10)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                specs,
            )
        };
        let (r, _) = run_with_crashes(
            build,
            CheckpointConfig::new(SimDuration::from_millis(5)).with_delta_checkpoints(4),
            CrashPlan {
                seed: 0xC4A5,
                crash_rate_per_s: 20.0,
                max_crashes: 2,
            },
        )
        .expect("delta-ckpt crash/replay run completes");
        std::hint::black_box(r.makespan);
    });
    cases.push(Case {
        name: "ckpt_delta",
        iters,
        hist,
    });

    // --- fleet failover ----------------------------------------------------
    // The device-loss path the fleet harness takes: a checkpointed run cut
    // by a whole-device crash at a fixed instant, failed over onto a
    // second (blank) device via `System::adopt`, then driven to
    // completion there.
    let iters = if cfg.smoke { 2 } else { 5 };
    let hist = time_iters(iters, || {
        let build = |device: u32| {
            let mut rng = SimRng::new(0xF1EE);
            let specs = poisson_tasks(
                &MixParams {
                    tasks: 6,
                    mean_interarrival: SimDuration::from_millis(2),
                    mean_cpu_burst: SimDuration::from_millis(2),
                    fpga_ops_per_task: 3,
                    cycles: (60_000, 200_000),
                },
                &ids,
                &mut rng,
            );
            let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
            System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(SimDuration::from_millis(10)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                specs,
            )
            .with_device_id(DeviceId(device))
        };
        let crash_at = fsim::SimTime::ZERO + SimDuration::from_millis(6);
        let outcome = build(0)
            .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
            .expect("dynload manager snapshots")
            .run_until(Some(crash_at))
            .expect("segment runs");
        let state = match outcome {
            RunOutcome::Crashed(state) => state,
            RunOutcome::Completed(..) => panic!("crash instant lands mid-run"),
        };
        let mut dest = build(1)
            .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
            .expect("dynload manager snapshots");
        // Every spec of this mix belongs to tenant 0.
        let receipt = dest.adopt(&state, &[0]).expect("failover applies");
        std::hint::black_box(receipt.redo_window);
        let r = match dest.run_until(None).expect("failover run completes") {
            RunOutcome::Completed(report, _) => report,
            RunOutcome::Crashed(_) => unreachable!("run_until(None) cannot crash"),
        };
        std::hint::black_box(r.makespan);
    });
    cases.push(Case {
        name: "fleet_failover",
        iters,
        hist,
    });

    // --- live migration ----------------------------------------------------
    // The two-phase tenant migration the fleet event loop drives: a
    // checkpointed 2-device fleet under a seeded migration plan, each
    // attempt cutting the source via readback, adopting the tenant on a
    // fresh destination shard, and journaling intent/commit/freed.
    let hist = time_iters(iters, || {
        let mut rng = SimRng::new(0x317A);
        let specs: Vec<_> = poisson_tasks(
            &MixParams {
                tasks: 6,
                mean_interarrival: SimDuration::from_millis(2),
                mean_cpu_burst: SimDuration::from_millis(2),
                fpga_ops_per_task: 3,
                cycles: (60_000, 200_000),
            },
            &ids,
            &mut rng,
        )
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.with_tenant(i as u32 % 3))
        .collect();
        let cfg = FleetConfig::new(2)
            .with_max_shards_per_device(4)
            .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
            .with_migrations(MigrationPlan {
                seed: 0x317A,
                rate_per_s: 400.0,
                max_migrations: 2,
                delta_copy: false,
                crash: None,
            });
        let fleet = run_fleet(&cfg, specs, |ctx| {
            let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
            Ok(System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(SimDuration::from_millis(10)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                ctx.specs.to_vec(),
            ))
        })
        .expect("migration fleet completes");
        std::hint::black_box(fleet.stats.tenant_migrations);
    });
    cases.push(Case {
        name: "migrate_live",
        iters,
        hist,
    });

    // --- profiled macro sweep ----------------------------------------------
    // The deterministic heart of the document: per-point latency sets and
    // span profiles merge **in point order**, so `sim` below is
    // byte-identical at any thread count.
    let points: Vec<u64> = (0..if cfg.smoke { 4 } else { 12 })
        .map(|i| 0xBEAC_u64 + i)
        .collect();
    let t0 = Instant::now();
    let results = run_sweep(cfg.threads, &points, |_, &seed| {
        macro_point(&lib, &ids, timing, seed)
    });
    let sweep_wall = t0.elapsed();
    let mut sim_lat = HistSet::new();
    let mut point_hist = LogHistogram::new();
    for (lat, prof, wall_ns) in &results {
        sim_lat.merge(lat);
        spans.merge(prof);
        point_hist.record(*wall_ns);
    }
    cases.push(Case {
        name: "macro_point",
        iters: points.len() as u64,
        hist: point_hist,
    });

    // --- document -----------------------------------------------------------
    let mut sim_lat_obj = Obj::new();
    for (name, h) in sim_lat.iter() {
        sim_lat_obj = sim_lat_obj.set(name, sim_hist_json(h));
    }
    // Span *counts* are deterministic only for the simulator's own spans:
    // `pnr;…` counts depend on which thread wins a compile-cache race, so
    // only `system…` paths may appear outside the volatile section.
    let mut span_counts = Obj::new();
    for (path, s) in spans.iter() {
        if path == "system" || path.starts_with("system;") {
            span_counts = span_counts.set(path, s.count);
        }
    }

    let mut host_cases = Obj::new();
    for c in &cases {
        host_cases = host_cases.set(c.name, case_json(c.iters, &c.hist));
    }
    let mut host_spans = Obj::new();
    for (path, s) in spans.iter() {
        host_spans = host_spans.set(
            path,
            Obj::new()
                .set("count", s.count)
                .set("incl_ns", s.total_ns)
                .set("excl_ns", s.exclusive_ns()),
        );
    }
    let cache = pnr::cache_stats();
    let pps = if sweep_wall.as_secs_f64() > 0.0 {
        points.len() as f64 / sweep_wall.as_secs_f64()
    } else {
        0.0
    };
    let doc = Obj::new()
        .set("schema", PERF_SCHEMA)
        .set("git", git_short_sha())
        .set("mode", cfg.mode())
        .set(
            "sim",
            Obj::new()
                .set("latency_ns", sim_lat_obj)
                .set("span_counts", span_counts),
        )
        // Volatile wall-clock section last, mirroring the experiment
        // exports: everything above this key is byte-stable.
        .set(
            crate::sections::HOST,
            Obj::new()
                .set("threads", cfg.threads as u64)
                .set("cases", host_cases)
                .set("spans", host_spans)
                .set("sweep_points_per_sec", pps)
                .set(
                    "compile_cache",
                    Obj::new()
                        .set("hits", cache.hits)
                        .set("misses", cache.misses)
                        .set("disk_hits", cache.disk_hits)
                        .set("disk_misses", cache.disk_misses)
                        .set("disk_writes", cache.disk_writes)
                        .set("entries", pnr::cache_len() as u64),
                ),
        )
        .build();

    let mut table = Table::new(
        "bench_perf: pinned suite (wall clock per iteration)",
        &["case", "iters", "mean", "p50", "p99", "max"],
    );
    for c in &cases {
        table.row(vec![
            c.name.to_string(),
            c.iters.to_string(),
            fmt_ns(c.hist.mean_ns()),
            fmt_ns(c.hist.quantile_ns(0.50)),
            fmt_ns(c.hist.quantile_ns(0.99)),
            fmt_ns(c.hist.max_ns()),
        ]);
    }
    (doc, spans, table)
}

/// Render a nanosecond count with a human-friendly unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// One flagged wall-clock regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case name under `host.cases`.
    pub case: String,
    /// Old best-of-N (ns/iter); mean for documents without `min_ns`.
    pub old_ns: u64,
    /// New best-of-N (ns/iter); mean for documents without `min_ns`.
    pub new_ns: u64,
    /// `new/old` ratio.
    pub ratio: f64,
}

/// Outcome of comparing two perf documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareOutcome {
    /// Cases whose wall time regressed beyond the tolerance.
    pub regressions: Vec<Regression>,
    /// Deterministic `sim` series that changed between the documents —
    /// not noise by construction, so any entry means simulated behavior
    /// (or instrumentation coverage) changed.
    pub sim_changes: Vec<String>,
    /// Cases present in the old document but missing from the new one.
    pub missing: Vec<String>,
}

impl CompareOutcome {
    /// Whether the new document is clean relative to the old one.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.sim_changes.is_empty() && self.missing.is_empty()
    }
}

fn as_u64(j: &Json) -> Option<u64> {
    match j {
        Json::UInt(v) => Some(*v),
        Json::Int(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

/// Compare two [`PERF_SCHEMA`] documents. `tolerance` is the allowed
/// fractional wall-clock slowdown (0.30 = 30%) before a case counts as a
/// regression; wall-clock noise below an absolute 500 ns floor is always
/// forgiven. Cases are judged on `min_ns` (best-of-N — a single scheduler
/// stall can poison the mean of a short micro case, but never its minimum),
/// falling back to `mean_ns` for documents that predate `min_ns`. Errors on
/// schema/mode mismatch or malformed documents.
pub fn compare(old: &Json, new: &Json, tolerance: f64) -> Result<CompareOutcome, String> {
    for (doc, which) in [(old, "old"), (new, "new")] {
        match doc.get("schema") {
            Some(Json::Str(s)) if s == PERF_SCHEMA => {}
            Some(Json::Str(s)) => {
                return Err(format!(
                    "{which} document has schema {s:?}, want {PERF_SCHEMA:?}"
                ))
            }
            _ => return Err(format!("{which} document has no schema field")),
        }
    }
    if old.get("mode") != new.get("mode") {
        return Err("cannot compare smoke and full documents".to_string());
    }
    let mut out = CompareOutcome::default();

    let old_cases = old
        .get(crate::sections::HOST)
        .and_then(|h| h.get("cases"))
        .ok_or("old document has no host.cases")?;
    let new_cases = new
        .get(crate::sections::HOST)
        .and_then(|h| h.get("cases"))
        .ok_or("new document has no host.cases")?;
    let Json::Obj(old_fields) = old_cases else {
        return Err("old host.cases is not an object".to_string());
    };
    for (name, old_case) in old_fields {
        let Some(new_case) = new_cases.get(name) else {
            out.missing.push(name.clone());
            continue;
        };
        let pick = |case: &Json| {
            case.get("min_ns")
                .and_then(as_u64)
                .or_else(|| case.get("mean_ns").and_then(as_u64))
        };
        let (Some(o), Some(n)) = (pick(old_case), pick(new_case)) else {
            return Err(format!("case {name:?} lacks min_ns and mean_ns fields"));
        };
        let budget = ((o as f64) * (1.0 + tolerance)) as u64;
        if n > budget && n - o > 500 {
            out.regressions.push(Regression {
                case: name.clone(),
                old_ns: o,
                new_ns: n,
                ratio: if o > 0 {
                    n as f64 / o as f64
                } else {
                    f64::INFINITY
                },
            });
        }
    }

    // The sim section is deterministic, so a plain rendered comparison is
    // exact; report per-series differences for actionability.
    let old_sim = old.get("sim").ok_or("old document has no sim section")?;
    let new_sim = new.get("sim").ok_or("new document has no sim section")?;
    if old_sim.render() != new_sim.render() {
        for part in ["latency_ns", "span_counts"] {
            let (Some(Json::Obj(of)), Some(Json::Obj(nf))) = (old_sim.get(part), new_sim.get(part))
            else {
                out.sim_changes.push(format!("sim.{part} shape changed"));
                continue;
            };
            for (k, v) in of {
                match nf.iter().find(|(nk, _)| nk == k) {
                    None => out.sim_changes.push(format!("sim.{part}.{k} disappeared")),
                    Some((_, nv)) if nv.render() != v.render() => {
                        out.sim_changes.push(format!("sim.{part}.{k} changed"))
                    }
                    Some(_) => {}
                }
            }
            for (k, _) in nf {
                if !of.iter().any(|(ok, _)| ok == k) {
                    out.sim_changes.push(format!("sim.{part}.{k} appeared"));
                }
            }
        }
        if out.sim_changes.is_empty() {
            out.sim_changes.push("sim section changed".to_string());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(mean_compile: u64, dl_count: u64) -> Json {
        Obj::new()
            .set("schema", PERF_SCHEMA)
            .set("git", "abc1234")
            .set("mode", "smoke")
            .set(
                "sim",
                Obj::new()
                    .set(
                        "latency_ns",
                        Obj::new().set("download_partial", Obj::new().set("count", dl_count)),
                    )
                    .set("span_counts", Obj::new().set("system", 4u64)),
            )
            .set(
                "host",
                Obj::new().set(
                    "cases",
                    Obj::new()
                        .set("compile_cold", Obj::new().set("mean_ns", mean_compile))
                        .set("download_full", Obj::new().set("mean_ns", 1_000u64)),
                ),
            )
            .build()
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(100_000, 7);
        let out = compare(&a, &a, 0.30).unwrap();
        assert!(out.is_clean(), "{out:?}");
    }

    #[test]
    fn slowdown_beyond_tolerance_is_flagged() {
        let old = doc(100_000, 7);
        let new = doc(200_000, 7);
        let out = compare(&old, &new, 0.30).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].case, "compile_cold");
        assert!((out.regressions[0].ratio - 2.0).abs() < 1e-9);
        // Within tolerance: clean.
        let new = doc(120_000, 7);
        assert!(compare(&old, &new, 0.30).unwrap().is_clean());
    }

    #[test]
    fn tiny_absolute_deltas_are_forgiven() {
        let old = doc(100, 7);
        let new = doc(400, 7); // 4x but only 300 ns
        assert!(compare(&old, &new, 0.30).unwrap().is_clean());
    }

    /// A scheduler stall can blow up the mean of a short micro case by
    /// orders of magnitude while the best-of-N stays put; the compare
    /// judges `min_ns` so such a run is not a regression. Conversely, a
    /// regressed minimum is flagged even when the means happen to agree.
    #[test]
    fn min_trumps_noisy_mean() {
        let with_min = |mean: u64, min: u64| {
            let mut d = doc(100_000, 7);
            if let Json::Obj(fields) = &mut d {
                if let Some((_, Json::Obj(hf))) = fields.iter_mut().find(|(k, _)| k == "host") {
                    if let Some((_, Json::Obj(cf))) = hf.iter_mut().find(|(k, _)| k == "cases") {
                        if let Some((_, c)) = cf.iter_mut().find(|(k, _)| k == "download_full") {
                            *c = Obj::new().set("mean_ns", mean).set("min_ns", min).build();
                        }
                    }
                }
            }
            d
        };
        let old = with_min(6_000, 5_500);
        let stalled = with_min(400_000, 5_700); // one bad sample, 66x mean
        assert!(compare(&old, &stalled, 0.30).unwrap().is_clean());
        let regressed = with_min(6_000, 60_000);
        let out = compare(&old, &regressed, 0.30).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].case, "download_full");
    }

    #[test]
    fn sim_changes_are_not_noise() {
        let old = doc(100_000, 7);
        let new = doc(100_000, 8);
        let out = compare(&old, &new, 0.30).unwrap();
        assert_eq!(
            out.sim_changes,
            vec!["sim.latency_ns.download_partial changed".to_string()]
        );
        assert!(!out.is_clean());
    }

    #[test]
    fn schema_and_mode_mismatches_error() {
        let a = doc(1, 1);
        let mut b = doc(1, 1);
        if let Json::Obj(fields) = &mut b {
            fields[0].1 = Json::Str("vfpga-bench-perf/999".into());
        }
        assert!(compare(&a, &b, 0.3).is_err());
        let mut c = doc(1, 1);
        if let Json::Obj(fields) = &mut c {
            fields[2].1 = Json::Str("full".into());
        }
        assert!(compare(&a, &c, 0.3).is_err());
    }

    #[test]
    fn missing_case_is_reported() {
        let old = doc(100_000, 7);
        let mut new = doc(100_000, 7);
        // Drop compile_cold from new.host.cases.
        if let Json::Obj(fields) = &mut new {
            if let Some((_, Json::Obj(hf))) = fields.iter_mut().find(|(k, _)| k == "host") {
                if let Some((_, Json::Obj(cf))) = hf.iter_mut().find(|(k, _)| k == "cases") {
                    cf.retain(|(k, _)| k != "compile_cold");
                }
            }
        }
        let out = compare(&old, &new, 0.30).unwrap();
        assert_eq!(out.missing, vec!["compile_cold".to_string()]);
    }

    // The full suite is exercised end-to-end by the bench_perf binary in
    // tests/determinism.rs (thread byte-identity, self-compare, schema).
    #[test]
    fn smoke_suite_runs_and_is_well_formed() {
        let (doc, spans, table) = run_suite(PerfConfig {
            threads: 1,
            smoke: true,
        });
        let text = doc.render();
        let back = Json::parse(&text).expect("perf document parses back");
        assert_eq!(
            back.get("schema"),
            Some(&Json::Str(PERF_SCHEMA.to_string()))
        );
        let out = compare(&back, &back, 0.30).unwrap();
        assert!(out.is_clean());
        assert!(spans.get("system").is_some(), "system spans recorded");
        assert!(spans.get("pnr;place").is_some(), "pnr flow spans recorded");
        assert!(table.len() >= 5, "all cases tabulated");
        // Deterministic section sanity: the macro run produced downloads.
        let sim = back.get("sim").unwrap();
        assert!(
            sim.get("latency_ns")
                .unwrap()
                .get("download_partial")
                .is_some(),
            "macro run recorded download latencies"
        );
        assert!(
            sim.get("span_counts")
                .unwrap()
                .get("system;arrive")
                .is_some(),
            "event-loop spans counted"
        );
    }
}
