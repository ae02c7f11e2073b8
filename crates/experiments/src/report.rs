//! Shared `--json` report assembly: one code path for the CLI and the
//! `ampsched serve` daemon.
//!
//! A report document has a fixed section order — `command`, `params`,
//! the per-experiment sections, then `telemetry` — and the *bytes* of
//! that document are a contract: `golden_compat` pins them per command,
//! and a served response must be byte-identical to what the CLI would
//! have written for the same resolved [`Params`] (DESIGN.md §14). Both
//! producers therefore assemble through [`assemble`] and compute their
//! sections with the same `figN::run` + `to_json` drivers; the server
//! additionally uses [`compute_sections`] to run a whole command
//! headlessly (no rendering, no CSV) inside one worker.

use crate::common::{Params, Predictors};
use crate::{
    ablation, fig1, fig6, fig78, morphing, overhead, profiling, regret, rr_interval, scaling,
};
use ampsched_system::SimPath;
use ampsched_util::Json;

/// Whether `command` requires the offline-profiled predictors (the
/// ratio matrix and regression surface). Mirrors the CLI's gating: the
/// profiling phase is skipped for predictor-free commands, which also
/// keeps their `sim.*` telemetry block free of profiling counters.
pub fn needs_predictors(command: &str) -> bool {
    !matches!(
        command,
        "tables" | "workloads" | "fig1" | "derive-rules" | "morphing" | "scaling"
    )
}

/// The commands [`compute_sections`] can run headlessly (every command
/// with a committed `golden_compat` report).
pub const SERVABLE_COMMANDS: &[&str] = &[
    "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "figs789", "overhead",
    "rr-interval", "ablation", "morphing", "scaling", "regret",
];

/// The `params` block of a report, exactly as the CLI emits it.
pub fn params_json(params: &Params) -> Json {
    let sim_path_name = match params.system.sim_path {
        SimPath::Fast => "fast",
        SimPath::Reference => "reference",
    };
    Json::obj([
        ("run_insts", Json::from(params.run_insts)),
        ("num_pairs", Json::from(params.num_pairs)),
        ("seed", Json::from(params.seed)),
        ("sim_path", Json::from(sim_path_name)),
        ("trace_path", Json::from(params.trace_path.name())),
        (
            "trace_cache",
            match &params.trace_cache {
                Some(dir) => Json::from(dir.display().to_string()),
                None => Json::Null,
            },
        ),
    ])
}

/// Assemble the full report document: `command`, `params`, the given
/// sections in order, then the `telemetry` block. The CLI passes the
/// live `sim.*` snapshot; the server passes the job's delta snapshot
/// merged with the memoized profiling phase's (which is identical for a
/// deterministic command — see `ampsched_obs::metrics::Snapshot::delta`
/// and `Snapshot::merge`).
pub fn assemble(
    command: &str,
    params: &Params,
    sections: Vec<(String, Json)>,
    telemetry: Json,
) -> Json {
    let mut all = vec![
        ("command".to_string(), Json::from(command)),
        ("params".to_string(), params_json(params)),
    ];
    all.extend(sections);
    all.push(("telemetry".to_string(), telemetry));
    Json::Obj(all)
}

/// Run `command` headlessly and return its report sections — exactly
/// what the CLI contributes to the document between `params` and
/// `telemetry`. `preds` carries the profiled predictors for commands
/// that [`needs_predictors`]; the caller obtains them (from
/// [`profiling::profile`]) so it can account for the profiling phase's
/// telemetry itself. Returns `Err` for commands outside
/// [`SERVABLE_COMMANDS`].
///
/// # Panics
/// If `command` needs predictors and `preds` is `None`.
pub fn compute_sections(
    command: &str,
    params: &Params,
    preds: Option<&Predictors>,
) -> Result<Vec<(String, Json)>, String> {
    let preds = |()| preds.expect("this command needs profiled predictors");
    let sections = match command {
        "fig1" => vec![("fig1".to_string(), fig1::to_json(&fig1::run(params)))],
        "fig3" => vec![(
            "fig3".to_string(),
            profiling::matrix_to_json(&preds(()).matrix),
        )],
        "fig4" => vec![(
            "fig4".to_string(),
            profiling::surface_to_json(&preds(()).surface),
        )],
        "fig6" => vec![(
            "fig6".to_string(),
            fig6::to_json(&fig6::run(params, preds(()))),
        )],
        "fig7" | "fig8" | "fig9" | "figs789" => vec![(
            "sweep".to_string(),
            fig78::to_json(&fig78::run_sweep(params, preds(()))),
        )],
        "overhead" => vec![(
            "overhead".to_string(),
            overhead::to_json(&overhead::run(params, preds(()))),
        )],
        "rr-interval" => vec![(
            "rr_interval".to_string(),
            rr_interval::to_json(&rr_interval::run(params, preds(()))),
        )],
        "ablation" => vec![(
            "ablation".to_string(),
            ablation::to_json(&ablation::run(params, preds(()))),
        )],
        "morphing" => vec![(
            "morphing".to_string(),
            morphing::to_json(&morphing::run(params)),
        )],
        "scaling" => vec![(
            "scaling".to_string(),
            scaling::to_json(&scaling::run(params)),
        )],
        "regret" => vec![(
            "regret".to_string(),
            regret::to_json(&regret::run(params, preds(()))),
        )],
        other => return Err(format!("command '{other}' has no headless report form")),
    };
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_block_matches_cli_shape() {
        let p = Params::quick();
        let j = params_json(&p);
        assert_eq!(j.get("run_insts").and_then(Json::as_u64), Some(p.run_insts));
        assert_eq!(j.get("sim_path").and_then(Json::as_str), Some("fast"));
        assert_eq!(j.get("trace_path").and_then(Json::as_str), Some("arena"));
        assert_eq!(j.get("trace_cache"), Some(&Json::Null));
        // Field order is part of the byte contract.
        let keys: Vec<&str> = j.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["run_insts", "num_pairs", "seed", "sim_path", "trace_path", "trace_cache"]
        );
    }

    #[test]
    fn assemble_orders_sections() {
        let doc = assemble(
            "fig1",
            &Params::quick(),
            vec![("fig1".to_string(), Json::arr([]))],
            Json::obj([("counters", Json::Obj(vec![]))]),
        );
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "params", "fig1", "telemetry"]);
    }

    #[test]
    fn predictor_gating_matches_cli() {
        for c in ["tables", "workloads", "fig1", "derive-rules", "morphing", "scaling"] {
            assert!(!needs_predictors(c), "{c}");
        }
        for c in ["fig3", "fig6", "fig7", "overhead", "rr-interval", "ablation", "regret"] {
            assert!(needs_predictors(c), "{c}");
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(compute_sections("nope", &Params::quick(), None).is_err());
    }
}
