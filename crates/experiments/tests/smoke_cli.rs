//! End-to-end smoke tests: run the `ampsched` binary on tiny workloads
//! and assert each command exits cleanly and emits a well-formed JSON
//! report with the documented schema.

use ampsched_util::Json;
use std::process::Command;

/// Run `ampsched <extra args> --json <tmp> <command>` and parse the report.
///
/// Each call gets its own directory: several tests run the same command
/// in parallel, and each call removes its directory when done.
fn run_with_json(command: &str, extra: &[&str]) -> Json {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ampsched-smoke-{}-{}-{call}",
        command,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("report.json");

    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(extra)
        .arg("--json")
        .arg(&json_path)
        .arg(command)
        .output()
        .expect("run ampsched");
    assert!(
        out.status.success(),
        "ampsched {command} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("report file written");
    std::fs::remove_dir_all(&dir).ok();
    let doc = Json::parse(&text).expect("report must be well-formed JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some(command));
    doc
}

/// Small-but-meaningful scale: 2 pairs, 20k-instruction runs, 200k
/// profiling instructions (enough for one interval per benchmark).
const QUICK: &[&str] = &["--quick", "--pairs", "2", "--insts", "20000", "--profile-insts", "200000"];

#[test]
fn ampsched_fig1_emits_well_formed_json_report() {
    let doc = run_with_json("fig1", &["--quick", "--insts", "20000"]);
    let params = doc.get("params").expect("params section");
    assert_eq!(params.get("run_insts").and_then(Json::as_u64), Some(20000));
    assert_eq!(params.get("sim_path").and_then(Json::as_str), Some("fast"));
    assert_eq!(params.get("trace_path").and_then(Json::as_str), Some("arena"));

    let rows = doc.get("fig1").and_then(Json::as_arr).expect("fig1 section");
    assert_eq!(rows.len(), 6, "Figure 1 covers six workloads");
    for row in rows {
        assert!(row.get("workload").and_then(Json::as_str).is_some());
        let a = row.get("ppw_core_a").and_then(Json::as_f64).expect("ppw_core_a");
        let b = row.get("ppw_core_b").and_then(Json::as_f64).expect("ppw_core_b");
        assert!(a > 0.0 && b > 0.0, "IPC/Watt must be positive");
        let ratio = row.get("ratio").and_then(Json::as_f64).expect("ratio");
        assert!((ratio - b / a).abs() < 1e-9);
    }
}

#[test]
fn ampsched_fig3_emits_matrix_grid() {
    let doc = run_with_json("fig3", QUICK);
    let cells = doc.get("fig3").and_then(Json::as_arr).expect("fig3 section");
    assert_eq!(cells.len(), 25, "5x5 bin grid");
    let mut profiled = 0;
    for c in cells {
        let int_pct = c.get("int_pct").and_then(Json::as_f64).expect("int_pct");
        let fp_pct = c.get("fp_pct").and_then(Json::as_f64).expect("fp_pct");
        assert!((0.0..=100.0).contains(&int_pct) && (0.0..=100.0).contains(&fp_pct));
        assert!(c.get("ratio").and_then(Json::as_f64).expect("ratio") > 0.0);
        if c.get("profiled").and_then(Json::as_bool) == Some(true) {
            profiled += 1;
        }
    }
    assert!(profiled > 0, "some cells must be directly profiled");
}

#[test]
fn ampsched_fig4_emits_surface_coefficients() {
    let doc = run_with_json("fig4", QUICK);
    let beta = doc
        .get("fig4")
        .and_then(|s| s.get("beta"))
        .and_then(Json::as_arr)
        .expect("fig4.beta");
    assert_eq!(beta.len(), 6, "quadratic surface has six coefficients");
    for b in beta {
        assert!(b.as_f64().expect("coefficient").is_finite());
    }
}

#[test]
fn ampsched_fig6_emits_sensitivity_grid() {
    let doc = run_with_json("fig6", QUICK);
    let pts = doc.get("fig6").and_then(Json::as_arr).expect("fig6 section");
    assert_eq!(pts.len(), 6, "3 windows x 2 histories");
    for p in pts {
        assert!(p.get("window").and_then(Json::as_u64).is_some());
        assert!(p.get("history").and_then(Json::as_u64).is_some());
        assert!(p
            .get("weighted_improvement_pct")
            .and_then(Json::as_f64)
            .expect("improvement")
            .is_finite());
    }
}

#[test]
fn ampsched_overhead_emits_sweep_points() {
    let doc = run_with_json("overhead", QUICK);
    let pts = doc
        .get("overhead")
        .and_then(Json::as_arr)
        .expect("overhead section");
    assert_eq!(pts.len(), 5, "five swept overheads");
    let overheads: Vec<u64> = pts
        .iter()
        .map(|p| p.get("overhead_cycles").and_then(Json::as_u64).expect("cycles"))
        .collect();
    assert_eq!(overheads, vec![100, 1_000, 10_000, 100_000, 1_000_000]);
    for p in pts {
        assert!(p
            .get("weighted_improvement_pct")
            .and_then(Json::as_f64)
            .expect("improvement")
            .is_finite());
    }
}

#[test]
fn ampsched_rr_interval_emits_per_pair_results() {
    let doc = run_with_json("rr-interval", QUICK);
    let section = doc.get("rr_interval").expect("rr_interval section");
    assert!(section
        .get("rr1_vs_rr2_weighted_pct")
        .and_then(Json::as_f64)
        .expect("average")
        .is_finite());
    let per_pair = section
        .get("per_pair")
        .and_then(Json::as_arr)
        .expect("per_pair");
    assert_eq!(per_pair.len(), 2, "--pairs 2");
    for p in per_pair {
        assert!(p.get("pair").and_then(Json::as_str).expect("label").contains('+'));
        assert!(p.get("weighted_pct").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn ampsched_ablation_emits_all_variants() {
    let doc = run_with_json("ablation", QUICK);
    let rows = doc
        .get("ablation")
        .and_then(Json::as_arr)
        .expect("ablation section");
    assert_eq!(rows.len(), 11, "full ablation battery");
    let variants: Vec<&str> = rows
        .iter()
        .map(|r| r.get("variant").and_then(Json::as_str).expect("variant"))
        .collect();
    assert!(variants.iter().any(|v| v.contains("no fairness swap")));
    assert!(variants.iter().any(|v| v.contains("round-robin")));
    for r in rows {
        assert!(r
            .get("weighted_vs_static_pct")
            .and_then(Json::as_f64)
            .expect("score")
            .is_finite());
        assert!(r.get("swaps_per_run").and_then(Json::as_f64).expect("swaps") >= 0.0);
    }
}

#[test]
fn ampsched_morphing_emits_four_config_rows() {
    let doc = run_with_json("morphing", &["--quick", "--insts", "20000"]);
    let rows = doc
        .get("morphing")
        .and_then(Json::as_arr)
        .expect("morphing section");
    assert_eq!(rows.len(), 9, "nine representative benchmarks");
    for r in rows {
        assert!(r.get("workload").and_then(Json::as_str).is_some());
        for key in ["ipc", "ppw"] {
            let vals = r.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(vals.len(), 4, "FP, INT, MORPH+, MORPH-");
            for v in vals {
                assert!(v.as_f64().expect("value") > 0.0);
            }
        }
        assert!(r.get("seq_speedup").and_then(Json::as_f64).expect("speedup") > 0.0);
        assert!(r.get("ppw_ratio").and_then(Json::as_f64).expect("ratio") > 0.0);
    }
}

#[test]
fn ampsched_scaling_emits_shape_grid_with_zoo_schedulers() {
    let doc = run_with_json("scaling", QUICK);
    let section = doc.get("scaling").expect("scaling section");
    let epoch = section.get("epoch_cycles").and_then(Json::as_u64).expect("epoch_cycles");
    // --quick: 20k instructions / 4, clamped to the [5_000, epoch] band.
    assert!((5_000..=400_000).contains(&epoch), "densified sweep epoch, got {epoch}");
    let shapes = section.get("shapes").and_then(Json::as_arr).expect("shapes");
    assert_eq!(shapes.len(), 5, "default shape grid");
    let labels: Vec<&str> = shapes
        .iter()
        .map(|s| s.get("label").and_then(Json::as_str).expect("label"))
        .collect();
    for required in ["2fp+2int-4t", "4fp+4int-8t", "1fp+3int-4t"] {
        assert!(labels.contains(&required), "grid must cover {required}: {labels:?}");
    }
    for shape in shapes {
        let threads = shape.get("threads").and_then(Json::as_u64).expect("threads") as usize;
        let workloads = shape.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(workloads.len(), threads, "one benchmark per thread");
        let cells = shape.get("schedulers").and_then(Json::as_arr).expect("schedulers");
        let names: Vec<&str> = cells
            .iter()
            .map(|c| c.get("scheduler").and_then(Json::as_str).expect("scheduler"))
            .collect();
        for required in ["proposed", "round-robin", "static", "tpe", "camp-static", "camp-dynamic"]
        {
            assert!(names.contains(&required), "zoo must include {required}: {names:?}");
        }
        for c in cells {
            assert!(c.get("cycles").and_then(Json::as_u64).expect("cycles") > 0);
            // The densified epoch guarantees every scheduler actually
            // reaches context-switch boundaries even under --quick; a
            // zero here means the epoch-cadence zoo silently degenerated
            // to static (the regression this sweep config exists to avoid).
            assert!(
                c.get("epoch_decisions").and_then(Json::as_u64).expect("epoch_decisions") > 0,
                "every run must cross at least one epoch boundary"
            );
            let ppw = c.get("ipc_per_watt").and_then(Json::as_arr).expect("ipc_per_watt");
            assert_eq!(ppw.len(), threads, "one IPC/Watt per thread");
            let vs = c.get("weighted_vs_static_pct").expect("vs-static field present");
            if let Some(v) = vs.as_f64() {
                assert!(v.is_finite());
            }
            let scheduler = c.get("scheduler").and_then(Json::as_str).unwrap();
            if scheduler == "static" {
                assert_eq!(c.get("swaps").and_then(Json::as_u64), Some(0));
                assert_eq!(c.get("migrations").and_then(Json::as_u64), Some(0));
                assert_eq!(vs.as_f64(), Some(0.0), "static vs itself is zero");
            }
            assert!(
                c.get("migrations").and_then(Json::as_u64).expect("migrations")
                    >= c.get("swaps").and_then(Json::as_u64).expect("swaps"),
                "each reassignment moves at least one thread"
            );
        }
    }
}

#[test]
fn ampsched_scaling_report_is_deterministic() {
    let a = run_with_json("scaling", QUICK);
    let b = run_with_json("scaling", QUICK);
    assert_eq!(
        a.get("scaling").expect("scaling section").render_pretty(),
        b.get("scaling").expect("scaling section").render_pretty(),
        "two identical invocations must produce identical reports"
    );
}

#[test]
fn ampsched_profile_flag_writes_bench_report() {
    let dir = std::env::temp_dir().join(format!("ampsched-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // An absolute results dir keeps the test from writing into the repo.
    let out = Command::new(env!("CARGO_BIN_EXE_ampsched"))
        .args(["--quick", "--insts", "20000", "--sim-path", "reference", "--profile", "fig1"])
        .env("CARGO_MANIFEST_DIR", &dir)
        .output()
        .expect("run ampsched");
    assert!(
        out.status.success(),
        "ampsched --profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Timing report"), "missing timing report:\n{stdout}");
    let report = dir.join("results/bench/profile-fig1-reference-arena.json");
    // The binary anchors results/ at the workspace root it derives from
    // CARGO_MANIFEST_DIR, which we pointed at the temp dir.
    let text = std::fs::read_to_string(&report).expect("profile json written");
    let doc = Json::parse(&text).expect("profile json parses");
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks array");
    assert!(
        benches.iter().any(|b| b.get("name").and_then(Json::as_str) == Some("fig1")),
        "fig1 phase must be timed"
    );
    assert!(
        benches.iter().any(|b| b.get("name").and_then(Json::as_str) == Some("trace")),
        "trace provisioning must be timed"
    );
    for b in benches {
        assert!(b.get("mean_ns").and_then(Json::as_f64).expect("mean_ns") > 0.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ampsched_trace_path_stream_matches_arena_report() {
    // The two provisioning paths must be observationally identical at the
    // CLI level: byte-identical figure sections in the JSON report.
    let arena = run_with_json("fig1", &["--quick", "--insts", "20000", "--trace-path", "arena"]);
    let stream = run_with_json("fig1", &["--quick", "--insts", "20000", "--trace-path", "stream"]);
    assert_eq!(
        arena.get("params").and_then(|p| p.get("trace_path")).and_then(Json::as_str),
        Some("arena")
    );
    assert_eq!(
        stream.get("params").and_then(|p| p.get("trace_path")).and_then(Json::as_str),
        Some("stream")
    );
    assert_eq!(
        arena.get("fig1").expect("fig1 section").render_pretty(),
        stream.get("fig1").expect("fig1 section").render_pretty(),
        "arena and stream provisioning must produce identical results"
    );
}
