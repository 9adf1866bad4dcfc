//! `explore_scaling` — E12/E15/E22: throughput of the sequential
//! explorer plus the partial-order-reduction state counts, recorded as
//! rows in `BENCH_explore.json`.
//!
//! ```bash
//! cargo run --release -p secflow-bench --bin explore_scaling [-- --quick]
//! ```
//!
//! `--quick` shrinks the workloads and repetitions for CI smoke runs.
//! Every row records the host's core count.
//!
//! The `persistent.*` rows run in persistent-only mode, the mode the
//! service's `explore` op uses. The POR rows (`full.*`, `por.*`) compare
//! the full interleaving search against the default mode (persistent
//! sets + sleep sets); `sequential_chain` is the honest no-win row — one
//! process has nothing to commute with. Every row has `size` 1: one
//! search runs on one thread.

use secflow_bench::{host_cores, median_secs, write_rows, Row};
use secflow_lang::Program;
use secflow_runtime::{explore_with, ExploreLimits};
use secflow_workload::{dining_philosophers, indep, sequential_chain};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 5 };

    let workloads: Vec<(String, Program)> = if quick {
        vec![
            ("sequential_chain(200, 8)".into(), sequential_chain(200, 8)),
            (
                "dining_philosophers(3, 3, ordered)".into(),
                dining_philosophers(3, 3, true),
            ),
            ("indep(3, 4)".into(), indep(3, 4)),
        ]
    } else {
        vec![
            ("sequential_chain(600, 8)".into(), sequential_chain(600, 8)),
            (
                "dining_philosophers(4, 3, ordered)".into(),
                dining_philosophers(4, 3, true),
            ),
            ("indep(4, 4)".into(), indep(4, 4)),
        ]
    };

    println!(
        "# explore_scaling — {} host core(s), {reps} reps/point\n",
        host_cores()
    );
    let mut rows = Vec::new();
    for (name, program) in &workloads {
        let mut row = |size: usize, metric: &'static str, value: f64, unit: &'static str| {
            rows.push(Row {
                layer: "runtime",
                workload: name.clone(),
                size,
                metric,
                value,
                unit,
            });
        };
        let limits = ExploreLimits {
            max_states: 2_000_000,
            max_depth: 100_000,
            ..ExploreLimits::default()
        };
        let mut states = 0;
        let secs = median_secs(reps, || {
            let report = explore_with(program, &[], limits.persistent_only(), &|| false);
            assert!(!report.truncated, "{name}: limits bound");
            states = report.states;
        });
        let rate = states as f64 / secs;
        println!("{name:36} persistent: {states:>8} states  {rate:>12.0} states/s");
        row(1, "persistent.states", states as f64, "count");
        row(1, "persistent.states_per_s", rate, "1/s");

        let mut full_states = 0;
        let full_secs = median_secs(reps, || {
            let report = explore_with(program, &[], limits.without_por(), &|| false);
            assert!(!report.truncated, "{name}: full search hit the limits");
            full_states = report.states;
        });
        let (mut por_states, mut por_pruned) = (0, 0);
        let por_secs = median_secs(reps, || {
            let report = explore_with(program, &[], limits, &|| false);
            assert!(!report.truncated, "{name}: reduced search hit the limits");
            por_states = report.states;
            por_pruned = report.states_pruned;
        });
        let reduction = full_states as f64 / por_states.max(1) as f64;
        println!(
            "{name:36} por: {full_states} -> {por_states} states ({reduction:.1}x, {por_pruned} pruned)\n"
        );
        row(1, "full.states", full_states as f64, "count");
        row(1, "full.explore_s", full_secs, "s");
        row(1, "por.states", por_states as f64, "count");
        row(1, "por.states_pruned", por_pruned as f64, "count");
        row(1, "por.explore_s", por_secs, "s");
        row(1, "por.reduction", reduction, "ratio");
    }

    write_rows("BENCH_explore.json", &rows).expect("write BENCH_explore.json");
    println!("wrote BENCH_explore.json");
}
