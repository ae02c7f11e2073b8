//! `ampsched` — regenerate every table and figure of the paper.
//!
//! ```text
//! ampsched [--quick|--medium] [--pairs N] [--insts N] [--seed N] [--sim-path fast|reference]
//!          [--trace-path arena|stream] [--trace-cache DIR] [--profile] [--profile-sample N]
//!          [--telemetry FILE] [--trace-events FILE]
//!          [--csv FILE] [--json FILE] <command>
//!
//! commands:
//!   tables        Tables I and II (live core configurations)
//!   workloads     inventory of the 37 workload models
//!   fig1          IPC/Watt of six workloads on each core type
//!   fig3          profiled ratio matrix
//!   fig4          fitted regression surface
//!   fig6          window-size x history-depth sensitivity
//!   fig7          per-pair improvements vs HPE
//!   fig8          per-pair improvements vs Round Robin
//!   fig9          worst/average/best summary (+ swap-rate stat)
//!   overhead      swap-overhead sensitivity (Section VI-C)
//!   rr-interval   Round Robin 2ms vs 4ms decision interval
//!   derive-rules  re-derive the Figure 5 thresholds (Section VI-A)
//!   ablation      design-choice ablation battery
//!   morphing      core-morphing extension comparison (cf. \[5\])
//!   scaling       N-core x M-thread scheduler-zoo sweep (predictor-free)
//!   regret        every scheduler vs the clairvoyant oracle (DP + replay)
//!   trace-cache   maintain the --trace-cache dir (stats|verify|gc)
//!   obs-summary   aggregate a --telemetry JSONL file per scheduler
//!   serve         scheduling-as-a-service daemon (HTTP, cached results)
//!   serve-bench   replay a request corpus against a running daemon
//!   all           everything above, in order
//! ```
//!
//! `--trace-cache DIR` (default: the `AMPSCHED_TRACE_CACHE` environment
//! variable, unset = no persistence) makes the trace arena durable: a
//! cold run writes each materialized stream to a checksummed chunk file
//! under DIR, and warm runs load instead of regenerating — bit-identical
//! either way, with corrupt or stale files deleted and regenerated.
//!
//! `--telemetry FILE` streams every scheduler decision as one JSON
//! object per line (the audit trail: predictor inputs, outputs, swap
//! cost, post-hoc misprediction); `ampsched obs-summary FILE` reads the
//! stream back. `--trace-events FILE` records host-time spans and writes
//! a Chrome trace-event file (open in about://tracing or Perfetto).
//! Both are pure observations: report output is byte-identical with or
//! without them.
//!
//! `--profile` also samples pipeline state (ROB/ISQ/LSQ occupancy,
//! issue-width utilization, stall cause at the ROB head) every 8192
//! simulated cycles; `--profile-sample N` changes the cadence, and on
//! its own enables just the sampler. Per-core summaries land in the
//! timing report, a `pipeline` section of the bench artifact, and — with
//! `--trace-events` — counter tracks in the Chrome trace. Sampling is
//! read-only: `--json` reports stay byte-identical with it enabled.
//!
//! `ampsched serve` turns the same experiment drivers into a daemon:
//! `POST /run` with `{"experiment": ..., "params": {...}}` answers with
//! exactly the bytes the CLI's `--json` would have written, cached by a
//! canonical hash of the resolved parameters (`--addr`, `--workers`,
//! `--cache-entries`, `--cache-dir`, `--deadline-ms`). `ampsched
//! serve-bench` replays a corpus against it and measures warm-vs-cold
//! latency (`--corpus`, `--repeat`, `--json`). EXPERIMENTS.md is the
//! full reference; DESIGN.md §14 the architecture.

use ampsched_experiments::{
    ablation, common::Params, fig1, fig6, fig78, morphing, obs_summary, overhead, profiling,
    regret, report, rr_interval, rules_derivation, scaling, serve, tables, telemetry, trace_cache,
};
use ampsched_system::SimPath;
use ampsched_trace::{arena, persist, timing, TracePath};
use ampsched_util::timer::{resolve_out_dir, Profiler};
use ampsched_util::Json;
use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: ampsched [--quick|--medium] [--pairs N] [--insts N] [--profile-insts N] [--seed N] \
         [--sim-path fast|reference] [--trace-path arena|stream] [--trace-cache DIR] [--profile] \
         [--profile-sample N] [--telemetry FILE] [--trace-events FILE] [--csv FILE] [--json FILE] \
         <tables|fig1|fig3|fig4|fig6|fig7|fig8|fig9|figs789|overhead|rr-interval|derive-rules|ablation|morphing|scaling|regret|workloads|trace-cache|obs-summary|serve|serve-bench|all>\n\
         \n\
         trace-cache actions: ampsched --trace-cache DIR trace-cache <stats|verify|gc>\n\
         obs-summary usage:   ampsched obs-summary FILE   (FILE from a --telemetry run)\n\
         serve flags:         ampsched serve [--addr HOST:PORT] [--workers N] [--cache-entries N] \
         [--cache-dir DIR] [--deadline-ms N] [--trace-cache DIR] [--access-log FILE] \
         [--flight-recorder FILE]\n\
         serve-bench flags:   ampsched serve-bench [--addr HOST:PORT] [--corpus FILE] [--repeat N] [--json FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = Params::default();
    let mut command: Option<String> = None;
    let mut action: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut profile = false;
    let mut profile_sample: Option<u64> = None;
    // `serve` / `serve-bench` knobs (ignored by other commands).
    let mut serve_addr: Option<String> = None;
    let mut serve_workers: Option<usize> = None;
    let mut serve_cache_entries: Option<usize> = None;
    let mut serve_cache_dir: Option<std::path::PathBuf> = None;
    let mut serve_deadline_ms: Option<u64> = None;
    let mut serve_access_log: Option<std::path::PathBuf> = None;
    let mut serve_flight_recorder: Option<std::path::PathBuf> = None;
    let mut bench_corpus: Option<std::path::PathBuf> = None;
    let mut bench_repeat: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => params = Params::quick(),
            "--medium" => params = Params::medium(),
            "--pairs" => {
                i += 1;
                params.num_pairs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--insts" => {
                i += 1;
                params.run_insts = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--profile-insts" => {
                i += 1;
                params.profile_insts = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--sim-path" => {
                i += 1;
                params.system.sim_path = match args.get(i).map(String::as_str) {
                    Some("fast") => SimPath::Fast,
                    Some("reference") => SimPath::Reference,
                    _ => usage(),
                };
            }
            "--trace-path" => {
                i += 1;
                params.trace_path = args
                    .get(i)
                    .and_then(|s| TracePath::from_flag(s))
                    .unwrap_or_else(|| usage());
            }
            "--trace-cache" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                params.trace_cache = Some(std::path::PathBuf::from(dir));
            }
            "--telemetry" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                params.telemetry = Some(std::path::PathBuf::from(file));
            }
            "--trace-events" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                params.trace_events = Some(std::path::PathBuf::from(file));
            }
            "--profile" => profile = true,
            "--profile-sample" => {
                i += 1;
                profile_sample =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                params.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--csv" => {
                i += 1;
                csv_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--addr" => {
                i += 1;
                serve_addr = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--workers" => {
                i += 1;
                serve_workers =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--cache-entries" => {
                i += 1;
                serve_cache_entries =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--cache-dir" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--deadline-ms" => {
                i += 1;
                serve_deadline_ms =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--access-log" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_access_log = Some(std::path::PathBuf::from(file));
            }
            "--flight-recorder" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                serve_flight_recorder = Some(std::path::PathBuf::from(file));
            }
            "--corpus" => {
                i += 1;
                let file = args.get(i).cloned().unwrap_or_else(|| usage());
                bench_corpus = Some(std::path::PathBuf::from(file));
            }
            "--repeat" => {
                i += 1;
                bench_repeat =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            // `trace-cache` takes one action word (stats|verify|gc);
            // `obs-summary` takes the telemetry file to read.
            c if matches!(command.as_deref(), Some("trace-cache") | Some("obs-summary"))
                && action.is_none()
                && !c.starts_with('-') =>
            {
                action = Some(c.to_string())
            }
            _ => usage(),
        }
        i += 1;
    }
    let command = command.unwrap_or_else(|| usage());
    // Reject unknown commands before the (expensive) profiling phase.
    const COMMANDS: &[&str] = &[
        "tables", "workloads", "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "figs789",
        "overhead", "rr-interval", "derive-rules", "ablation", "morphing", "scaling", "regret",
        "trace-cache", "obs-summary", "serve", "serve-bench", "all",
    ];
    if !COMMANDS.contains(&command.as_str()) {
        eprintln!("unknown command: {command}");
        usage();
    }
    // Environment default for the persistent trace cache; the explicit
    // flag wins.
    if params.trace_cache.is_none() {
        if let Some(dir) = std::env::var_os("AMPSCHED_TRACE_CACHE") {
            if !dir.is_empty() {
                params.trace_cache = Some(std::path::PathBuf::from(dir));
            }
        }
    }

    // Cache maintenance runs standalone: no profiling, no simulation.
    if command == "trace-cache" {
        let Some(dir) = &params.trace_cache else {
            eprintln!("trace-cache: no cache directory (pass --trace-cache DIR or set AMPSCHED_TRACE_CACHE)");
            std::process::exit(2);
        };
        let action = action
            .as_deref()
            .and_then(trace_cache::Action::from_flag)
            .unwrap_or_else(|| {
                eprintln!("trace-cache: expected an action: stats | verify | gc");
                usage()
            });
        let outcome = trace_cache::run(action, dir);
        print!("{}", outcome.rendered);
        if let Some(path) = &json_path {
            let doc = Json::obj([
                ("command", Json::from("trace-cache")),
                ("trace_cache", outcome.json),
            ]);
            std::fs::write(path, doc.render_pretty()).expect("write json report");
            eprintln!("[json report written to {path}]");
        }
        std::process::exit(if outcome.healthy { 0 } else { 1 });
    }

    // Telemetry aggregation also runs standalone: read back a JSONL
    // audit trail, no profiling, no simulation.
    if command == "obs-summary" {
        let Some(file) = &action else {
            eprintln!("obs-summary: expected a telemetry file: ampsched obs-summary FILE");
            usage()
        };
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("obs-summary: cannot read {file}: {e}");
            std::process::exit(1);
        });
        let summaries = obs_summary::summarize(&text).unwrap_or_else(|e| {
            eprintln!("obs-summary: {file}: {e}");
            std::process::exit(1);
        });
        println!("Telemetry summary — {file}\n");
        println!("{}", obs_summary::render(&summaries));
        if let Some(path) = &json_path {
            let doc = Json::obj([
                ("command", Json::from("obs-summary")),
                ("obs_summary", obs_summary::to_json(&summaries)),
            ]);
            std::fs::write(path, doc.render_pretty()).expect("write json report");
            eprintln!("[json report written to {path}]");
        }
        std::process::exit(0);
    }

    // The daemon runs standalone: its workers profile through the same
    // memo, and it never uses the CLI's csv/json/profile plumbing.
    if command == "serve" {
        let mut config = serve::ServeConfig::default();
        if let Some(addr) = serve_addr {
            config.addr = addr;
        }
        if let Some(n) = serve_workers {
            config.workers = n.max(1);
        }
        if let Some(n) = serve_cache_entries {
            config.cache_entries = n.max(1);
        }
        config.cache_dir = serve_cache_dir;
        if let Some(ms) = serve_deadline_ms {
            config.deadline_ms = ms.max(1);
        }
        config.access_log = serve_access_log;
        config.flight_recorder = serve_flight_recorder;
        config.base = params.clone();
        let server = serve::Server::bind(config).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        });
        // The one line scripts parse for the (possibly ephemeral) port.
        println!(
            "ampsched serve listening on {}",
            server.local_addr().expect("bound address")
        );
        if let Err(e) = server.run() {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
        eprintln!("[serve: drained and stopped]");
        std::process::exit(0);
    }

    // So does the bench client: it talks to a daemon, it never
    // simulates.
    if command == "serve-bench" {
        let config = serve::bench::BenchConfig {
            addr: serve_addr.unwrap_or_else(|| "127.0.0.1:7199".to_string()),
            corpus: bench_corpus,
            repeat: bench_repeat.unwrap_or(5),
            json_out: json_path.clone(),
        };
        if let Err(e) = serve::bench::run(&config) {
            eprintln!("serve-bench: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }

    // Observability side channels: the JSONL decision stream and host-time
    // span recording. Both observe the run without feeding back into it.
    if let Some(file) = &params.telemetry {
        if let Err(e) = ampsched_obs::telemetry::install(file) {
            eprintln!("cannot open telemetry file {}: {e}", file.display());
            std::process::exit(2);
        }
    }
    if profile || params.trace_events.is_some() {
        ampsched_obs::span::set_enabled(true);
    }
    // Pipeline sampling: `--profile` turns it on at the default cadence;
    // `--profile-sample N` overrides the interval and also works on its
    // own (summary to stdout, no bench artifact).
    if profile || profile_sample.is_some() {
        ampsched_obs::profiler::set_interval(profile_sample.unwrap_or(8192).max(1));
    }

    // Warm/cold label for profile artifacts: the run is warm when the
    // cache directory already holds chunk files at startup.
    let cache_state = params.trace_cache.as_deref().map(|dir| {
        let has_files = persist::scan(dir).iter().any(|r| r.is_valid());
        if has_files { "warm" } else { "cold" }
    });

    let t0 = Instant::now();
    // Per-phase wall-clock accounting for `--profile`; shaped like a bench
    // report so `scripts/bench_diff` can compare two runs. Trace
    // provisioning time (arena materialize+decode, or sampled live
    // generation on `--trace-path stream`) is accumulated globally by the
    // trace crate and reported as the synthetic "trace" benchmark.
    let prof: RefCell<Profiler> = RefCell::new(Profiler::new());
    if profile {
        timing::reset();
        timing::set_stream_sampling(true);
    }
    let needs_predictors = command == "all" || report::needs_predictors(&command);
    let cell = if needs_predictors {
        eprintln!("[profiling {} representative benchmarks ...]", 9);
        Some(
            prof.borrow_mut()
                .time("profiling", || profiling::profile(&params)),
        )
    } else {
        None
    };
    let preds = cell.as_ref().map(|c| &c.predictors);

    // Machine-readable report sections, keyed by figure; written as one
    // JSON document at exit when --json is given.
    let report: RefCell<Vec<(String, Json)>> = RefCell::new(Vec::new());

    let run_one = |cmd: &str| match cmd {
        "tables" => {
            println!("Table I — core structure sizes\n\n{}", tables::render_table_i());
            println!("Table II — execution units\n\n{}", tables::render_table_ii());
        }
        "workloads" => {
            println!("Workload inventory (37 models, Section IV)\n\n{}", tables::render_workloads());
        }
        "fig1" => {
            println!("Figure 1 — IPC/Watt per workload per core\n");
            let rows = fig1::run(&params);
            println!("{}", fig1::render(&rows));
            report.borrow_mut().push(("fig1".into(), fig1::to_json(&rows)));
        }
        "fig3" => {
            println!("Figure 3 — IPC/Watt ratio matrix (INT core / FP core)\n");
            let matrix = &preds.expect("predictors").matrix;
            println!("{}", profiling::render_matrix(matrix));
            report.borrow_mut().push(("fig3".into(), profiling::matrix_to_json(matrix)));
        }
        "fig4" => {
            println!("Figure 4 — fitted ratio surface\n");
            let surface = &preds.expect("predictors").surface;
            println!("{}", profiling::render_surface(surface));
            report.borrow_mut().push(("fig4".into(), profiling::surface_to_json(surface)));
        }
        "fig6" => {
            println!("Figure 6 — window/history sensitivity\n");
            let pts = fig6::run(&params, preds.expect("predictors"));
            println!("{}", fig6::render(&pts));
            report.borrow_mut().push(("fig6".into(), fig6::to_json(&pts)));
        }
        "fig7" | "fig8" | "fig9" | "figs789" => {
            eprintln!("[running {}-pair sweep under 3 schedulers ...]", params.num_pairs);
            let sweep = fig78::run_sweep(&params, preds.expect("predictors"));
            if let Some(path) = &csv_path {
                let mut f = std::fs::File::create(path).expect("create csv file");
                fig78::write_sweep_csv(&sweep, &mut f).expect("write csv");
                eprintln!("[per-pair results written to {path}]");
            }
            report.borrow_mut().push(("sweep".into(), fig78::to_json(&sweep)));
            match cmd {
                "fig7" => {
                    println!("Figure 7 — proposed vs HPE\n");
                    println!("{}", fig78::render_fig(&sweep, fig78::Reference::Hpe));
                }
                "fig8" => {
                    println!("Figure 8 — proposed vs Round Robin\n");
                    println!("{}", fig78::render_fig(&sweep, fig78::Reference::RoundRobin));
                }
                "fig9" => {
                    println!("Figure 9 — worst/average/best IPC/Watt improvements\n");
                    println!("{}", fig78::render_fig9(&sweep));
                }
                _ => {
                    println!("Figure 7 — proposed vs HPE\n");
                    println!("{}", fig78::render_fig(&sweep, fig78::Reference::Hpe));
                    println!("Figure 8 — proposed vs Round Robin\n");
                    println!("{}", fig78::render_fig(&sweep, fig78::Reference::RoundRobin));
                    println!("Figure 9 — worst/average/best IPC/Watt improvements\n");
                    println!("{}", fig78::render_fig9(&sweep));
                }
            }
        }
        "overhead" => {
            println!("Section VI-C — swap-overhead sensitivity\n");
            let pts = overhead::run(&params, preds.expect("predictors"));
            println!("{}", overhead::render(&pts));
            report.borrow_mut().push(("overhead".into(), overhead::to_json(&pts)));
        }
        "rr-interval" => {
            println!("Section VII — Round Robin decision-interval comparison\n");
            let r = rr_interval::run(&params, preds.expect("predictors"));
            println!("{}", rr_interval::render(&r));
            report.borrow_mut().push(("rr_interval".into(), rr_interval::to_json(&r)));
        }
        "derive-rules" => {
            println!("Section VI-A — swap-rule threshold derivation\n");
            let d = rules_derivation::derive(&params, 50);
            println!("{}", rules_derivation::render(&d));
        }
        "morphing" => {
            println!("Extension — core morphing sequential comparison (cf. [5])\n");
            let rows = morphing::run(&params);
            println!("{}", morphing::render(&rows));
            report.borrow_mut().push(("morphing".into(), morphing::to_json(&rows)));
        }
        "ablation" => {
            println!("Ablation battery (all variants vs static baseline)\n");
            let rows = ablation::run(&params, preds.expect("predictors"));
            println!("{}", ablation::render(&rows));
            report.borrow_mut().push(("ablation".into(), ablation::to_json(&rows)));
        }
        "scaling" => {
            println!("Scaling — N-core x M-thread scheduler-zoo sweep\n");
            let r = scaling::run(&params);
            println!("{}", scaling::render(&r));
            report.borrow_mut().push(("scaling".into(), scaling::to_json(&r)));
        }
        "regret" => {
            println!("Regret — every scheduler vs the clairvoyant oracle\n");
            eprintln!("[racing {}-pair corpus against the offline DP oracle ...]", params.num_pairs);
            let r = regret::run(&params, preds.expect("predictors"));
            println!("{}", regret::render(&r));
            report.borrow_mut().push(("regret".into(), regret::to_json(&r)));
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    };

    let timed = |cmd: &str| {
        if profile {
            prof.borrow_mut().time(cmd, || run_one(cmd));
        } else {
            run_one(cmd);
        }
    };

    if command == "all" {
        // Run the full index. fig7/8/9 share one sweep.
        timed("tables");
        timed("fig1");
        timed("fig3");
        timed("fig4");
        timed("derive-rules");
        timed("fig6");
        eprintln!("[running {}-pair sweep under 3 schedulers ...]", params.num_pairs);
        let run_sweep = || fig78::run_sweep(&params, preds.expect("predictors"));
        let sweep = if profile {
            prof.borrow_mut().time("figs789", run_sweep)
        } else {
            run_sweep()
        };
        report.borrow_mut().push(("sweep".into(), fig78::to_json(&sweep)));
        println!("Figure 7 — proposed vs HPE\n");
        println!("{}", fig78::render_fig(&sweep, fig78::Reference::Hpe));
        println!("Figure 8 — proposed vs Round Robin\n");
        println!("{}", fig78::render_fig(&sweep, fig78::Reference::RoundRobin));
        println!("Figure 9 — worst/average/best\n");
        println!("{}", fig78::render_fig9(&sweep));
        timed("overhead");
        timed("rr-interval");
        timed("ablation");
        timed("morphing");
        timed("scaling");
    } else {
        timed(&command);
    }
    // Persist any streams materialized this run before reporting, so the
    // next process starts warm even when no doubling write-back or
    // eviction fired.
    if params.trace_cache.is_some() {
        arena::flush();
    }
    // Flush the JSONL audit trail before reporting so the file is
    // complete when the process exits.
    if let Some(file) = &params.telemetry {
        ampsched_obs::telemetry::close();
        eprintln!("[telemetry stream written to {}]", file.display());
    }
    if let Some(file) = &params.trace_events {
        match ampsched_obs::span::write_trace_events(file) {
            Ok(n) => eprintln!("[{n} trace events written to {}]", file.display()),
            Err(e) => eprintln!("cannot write trace events to {}: {e}", file.display()),
        }
    }
    let sim_path_name = match params.system.sim_path {
        SimPath::Fast => "fast",
        SimPath::Reference => "reference",
    };
    let trace_path_name = params.trace_path.name();
    if let Some(path) = &json_path {
        // One assembly path with the serve daemon (report::assemble):
        // the byte-identity contract between `--json` files and served
        // responses starts here. The telemetry block is restricted to
        // the deterministic `sim.*` namespace so the report stays
        // byte-identical across trace provisioning modes, cache
        // temperature, and telemetry flags.
        let doc = report::assemble(
            &command,
            &params,
            report.into_inner(),
            telemetry::summary_json(),
        );
        std::fs::write(path, doc.render_pretty()).expect("write json report");
        eprintln!("[json report written to {path}]");
    }
    if profile {
        let mut prof = prof.into_inner();
        let trace_time = timing::total();
        prof.add("trace", trace_time);
        // Fold recorded spans in under a `span.` prefix: new per-name
        // phases appear alongside the coarse command timings, and
        // `bench_diff` skips names the baseline lacks, so span-derived
        // phases never break profile comparisons.
        for (name, dur, _count) in ampsched_obs::span::aggregate() {
            prof.add(&format!("span.{name}"), dur);
        }
        println!("Timing report ({command}, {sim_path_name} kernel, {trace_path_name} traces)\n");
        println!("{}", prof.render());
        let pipeline = render_pipeline_summary();
        if !pipeline.is_empty() {
            println!("{pipeline}");
        }
        let wall = t0.elapsed();
        println!(
            "trace provisioning: {:.3}s = {:.1}% of {:.1}s wall-clock ({trace_path_name})\n",
            trace_time.as_secs_f64(),
            100.0 * trace_time.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            wall.as_secs_f64()
        );
        let dir = resolve_out_dir(Path::new("results/bench"));
        std::fs::create_dir_all(&dir).expect("create results/bench");
        // With a persistent cache the warm/cold distinction dominates the
        // trace phase, so it becomes part of the artifact identity.
        let state_suffix = cache_state.map(|s| format!("-{s}")).unwrap_or_default();
        let out = dir.join(format!(
            "profile-{command}-{sim_path_name}-{trace_path_name}{state_suffix}.json"
        ));
        let target = match cache_state {
            Some(s) => format!("ampsched {command} ({sim_path_name}, {trace_path_name}, {s} cache)"),
            None => format!("ampsched {command} ({sim_path_name}, {trace_path_name})"),
        };
        // Fold the sampled pipeline summary into the artifact alongside
        // the wall-clock phases: `bench_diff` only reads `benchmarks`, so
        // the extra section never perturbs timing comparisons.
        let mut doc = prof.to_bench_json(&target);
        if ampsched_obs::profiler::sample_count() > 0 {
            if let Json::Obj(sections) = &mut doc {
                sections.push((
                    "pipeline".to_string(),
                    ampsched_obs::profiler::summary_json(&ampsched_cpu::STALL_CAUSE_NAMES),
                ));
            }
        }
        std::fs::write(&out, doc.render_pretty()).expect("write profile json");
        eprintln!("[profile written to {}]", out.display());
    } else if profile_sample.is_some() {
        // `--profile-sample` without `--profile`: report the sampled
        // pipeline state without the timing machinery or artifacts.
        let pipeline = render_pipeline_summary();
        if !pipeline.is_empty() {
            println!("{pipeline}");
        }
    }
    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

/// Aligned text table of the sampled per-core pipeline summaries; empty
/// when the profiler recorded nothing (sampling off, or the run was too
/// short to cross an interval boundary).
fn render_pipeline_summary() -> String {
    let summaries = ampsched_obs::profiler::summarize();
    if summaries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Pipeline samples (every {} cycles)\n",
        ampsched_obs::profiler::interval()
    ));
    out.push_str(&format!(
        "{:<5} {:>8} {:>7} {:>8} {:>7} {:>6} {:>6} {:>6}  top stall\n",
        "core", "samples", "rob", "isq_int", "isq_fp", "lq", "sq", "util"
    ));
    for c in &summaries {
        let (top_code, top_n) = c
            .stall_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, n)| *n)
            .map(|(i, n)| (i, *n))
            .unwrap_or((0, 0));
        let top_name = ampsched_cpu::STALL_CAUSE_NAMES
            .get(top_code)
            .copied()
            .unwrap_or("?");
        out.push_str(&format!(
            "{:<5} {:>8} {:>7.1} {:>8.1} {:>7.1} {:>6.1} {:>6.1} {:>5.1}%  {} ({:.0}%)\n",
            c.core,
            c.samples,
            c.mean_rob,
            c.mean_isq_int,
            c.mean_isq_fp,
            c.mean_lq,
            c.mean_sq,
            100.0 * c.issue_utilization,
            top_name,
            100.0 * top_n as f64 / (c.samples as f64).max(1.0),
        ));
    }
    out
}
