//! Figure 1: performance-per-watt of six representative workloads on each
//! of the two core types, run alone.

use ampsched_cpu::CoreConfig;
use ampsched_metrics::Table;
use ampsched_system::single::run_alone_with;
use ampsched_trace::suite;

use crate::common::Params;
use crate::runner::parallel_map;

/// One Figure 1 bar pair.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Workload name.
    pub workload: String,
    /// IPC/Watt on core A (the FP core).
    pub ppw_core_a: f64,
    /// IPC/Watt on core B (the INT core).
    pub ppw_core_b: f64,
}

impl Fig1Row {
    /// Core B ÷ core A (values > 1 mean the INT core wins).
    pub fn ratio(&self) -> f64 {
        self.ppw_core_b / self.ppw_core_a
    }
}

/// Run the Figure 1 experiment.
pub fn run(params: &Params) -> Vec<Fig1Row> {
    let names: Vec<&'static str> = suite::fig1_six().iter().map(|b| b.name).collect();
    parallel_map(&names, |name| {
        let spec = suite::by_name(name).expect("fig1 benchmark");
        // Both cores replay the same arena stream: one materialization
        // serves the A and B runs. (The profiling pass frees its streams
        // after its own two runs, so fig1 never shares them.)
        let mut w = params.workload_for_thread(spec.clone(), params.seed, 0);
        let a = run_alone_with(
            CoreConfig::fp_core(),
            params.system.mem,
            params.system.sim_path,
            &mut *w,
            params.run_insts,
            params.profile_interval_cycles,
        );
        let mut w = params.workload_for_thread(spec, params.seed, 0);
        let b = run_alone_with(
            CoreConfig::int_core(),
            params.system.mem,
            params.system.sim_path,
            &mut *w,
            params.run_insts,
            params.profile_interval_cycles,
        );
        Fig1Row {
            workload: name.to_string(),
            ppw_core_a: a.totals.ipc_per_watt(),
            ppw_core_b: b.totals.ipc_per_watt(),
        }
    })
}

/// Serialize Figure 1 rows for the `--json` report path.
pub fn to_json(rows: &[Fig1Row]) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("workload", Json::from(r.workload.as_str())),
            ("ppw_core_a", Json::from(r.ppw_core_a)),
            ("ppw_core_b", Json::from(r.ppw_core_b)),
            ("ratio", Json::from(r.ratio())),
        ])
    }))
}

/// Render the ASCII version of Figure 1.
pub fn render(rows: &[Fig1Row]) -> String {
    let mut t = Table::new(&["workload", "IPC/W core A (FP)", "IPC/W core B (INT)", "B/A"]);
    let mut bars = Vec::new();
    for r in rows {
        t.row(&[
            r.workload.clone(),
            format!("{:.4}", r.ppw_core_a),
            format!("{:.4}", r.ppw_core_b),
            format!("{:.2}", r.ratio()),
        ]);
        bars.push((format!("{} (A)", r.workload), r.ppw_core_a));
        bars.push((format!("{} (B)", r.workload), r.ppw_core_b));
    }
    let mut s = t.render();
    s.push('\n');
    s.push_str(&ampsched_metrics::hbar_chart(&bars, 44, " IPC/W"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_matches_paper() {
        let rows = run(&Params::quick());
        let get = |n: &str| rows.iter().find(|r| r.workload == n).expect("row");
        // Core A (FP) wins for equake and fpstress...
        assert!(get("equake").ratio() < 0.9, "equake: {}", get("equake").ratio());
        assert!(get("fpstress").ratio() < 0.8);
        // ...core B (INT) wins for CRC32 and intstress...
        assert!(get("CRC32").ratio() > 1.4);
        assert!(get("intstress").ratio() > 1.4);
        // ...and gcc/mcf show no decisive preference.
        assert!((0.65..1.55).contains(&get("gcc").ratio()));
        assert!((0.65..1.55).contains(&get("mcf").ratio()));
    }

    #[test]
    fn render_contains_all_workloads() {
        let rows = run(&Params::quick());
        let s = render(&rows);
        for n in ["equake", "fpstress", "gcc", "mcf", "CRC32", "intstress"] {
            assert!(s.contains(n));
        }
    }
}
