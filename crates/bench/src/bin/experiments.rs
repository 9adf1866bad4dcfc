//! `experiments` — regenerate every paper-vs-measured table in one run.
//!
//! Prints the markdown tables EXPERIMENTS.md records for E2, E3, E5/E6,
//! E7 and E10, costs included, and re-checks the soundness and
//! theorem-equivalence assertions inline:
//!
//! ```bash
//! cargo run --release -p secflow-bench --bin experiments
//! ```
//!
//! Costs are medians of batched calls ([`ns_per_call`]), so
//! sub-microsecond rows stay above timer resolution.

use secflow_bench::{host_cores, ns_per_call};
use secflow_core::{certify, certify_quadratic, denning_certify, infer_binding, StaticBinding};
use secflow_lang::builder::{e, s, ProgramBuilder};
use secflow_lang::{parse, print_program, Program};
use secflow_lattice::{Extended, TwoPoint, TwoPointScheme};
use secflow_logic::{build_proof, check_proof};
use secflow_runtime::{
    check_binary_secret, explore, run, ExploreLimits, Machine, RoundRobin, TaintMonitor,
};
use secflow_workload::{
    branchy, decode_transmitted, fig3_baseline_gap_binding, fig3_high_x_binding, fig3_program,
    generate, kbit_channel, loop_heavy, random_binding, sequential_chain, sync_heavy, GenConfig,
};

fn main() {
    println!(
        "# secflow experiment runner ({} host cores)\n",
        host_cores()
    );
    e2_fig2_rows();
    e3_fig3();
    e5_e6_theorems();
    e7_linearity();
    e10_leak_matrix();
    println!("\nall experiment shapes reproduced; see EXPERIMENTS.md for context");
}

/// Statements in each Figure 2 row program.
const ROW_STMTS: usize = 1000;

/// The Figure 2 rows E2 times, by statement form.
const FIG2_ROWS: [&str; 6] = [
    "assignment",
    "alternation",
    "iteration",
    "cobegin",
    "wait/signal",
    "skip",
];

/// One Figure 2 row program: the row's statement form, repeated to
/// about [`ROW_STMTS`] statements.
fn fig2_row(row: &str) -> Program {
    let n = ROW_STMTS;
    let mut b = ProgramBuilder::new();
    let x = b.data("x");
    let body = match row {
        "assignment" => s::seq((0..n).map(|_| s::assign(x, e::add(e::var(x), e::konst(1))))),
        "alternation" => s::seq((0..n / 3).map(|_| {
            s::if_else(
                e::eq(e::var(x), e::konst(0)),
                s::assign(x, e::konst(1)),
                s::assign(x, e::konst(2)),
            )
        })),
        "iteration" => s::seq((0..n / 2).map(|_| {
            s::while_do(
                e::gt(e::var(x), e::konst(0)),
                s::assign(x, e::sub(e::var(x), e::konst(1))),
            )
        })),
        "cobegin" => {
            let y = b.data("y");
            s::seq(
                (0..n / 3)
                    .map(|_| s::cobegin([s::assign(x, e::konst(1)), s::assign(y, e::konst(2))])),
            )
        }
        "wait/signal" => {
            let sem = b.sem("s", 0);
            s::seq((0..n / 2).flat_map(|_| [s::signal(sem), s::wait(sem)]))
        }
        "skip" => s::seq((0..n).map(|_| s::skip())),
        _ => unreachable!("unknown row {row}"),
    };
    b.finish(body)
}

fn e2_fig2_rows() {
    println!("## E2 — Figure 2: certify cost per row\n");
    println!("| row | statements | certify µs | ns per statement |");
    println!("|---|---|---|---|");
    for name in FIG2_ROWS {
        let program = fig2_row(name);
        let binding = StaticBinding::uniform(&program.symbols, &TwoPointScheme);
        let stmts = program.statement_count();
        let ns = ns_per_call(|| certify(&program, &binding).certified());
        println!(
            "| {name} | {stmts} | {:.1} | {:.1} |",
            ns / 1e3,
            ns / stmts as f64
        );
    }
    println!();
}

fn e3_fig3() {
    println!("## E3 — Figure 3\n");
    let p = fig3_program();

    // Exploration claims.
    for x in [0i64, 1] {
        let r = explore(&p, &[(p.var("x"), x)], ExploreLimits::default());
        let ys = r.project(&[p.var("y")]);
        println!(
            "x = {x}: {} states explored, deadlocks = {}, y outcomes = {:?}",
            r.states,
            r.deadlocks,
            ys.iter().map(|v| v[0]).collect::<Vec<_>>()
        );
        assert_eq!(r.deadlocks, 0);
    }

    // Verdict matrix.
    println!("\n| binding | CFM | Denning baseline |");
    println!("|---|---|---|");
    for (name, binding) in [
        ("x High, rest Low", fig3_high_x_binding(&p)),
        ("x + semaphores High", fig3_baseline_gap_binding(&p)),
    ] {
        println!(
            "| {name} | {} | {} |",
            verdict(certify(&p, &binding).certified()),
            verdict(denning_certify(&p, &binding).certified()),
        );
    }

    // Unsatisfiable policy witness.
    let err = infer_binding(
        &p,
        &TwoPointScheme,
        [(p.var("x"), TwoPoint::High), (p.var("y"), TwoPoint::Low)],
    )
    .unwrap_err();
    println!("\nwitness chain for x=High,y=Low: {}", err.render_path(&p));

    // What each procedure costs on Figure 3.
    let gap = fig3_baseline_gap_binding(&p);
    let x_high = [(p.var("x"), 1)];
    let costs = [
        ("CFM certify", ns_per_call(|| certify(&p, &gap).certified())),
        (
            "Denning baseline certify",
            ns_per_call(|| denning_certify(&p, &gap).certified()),
        ),
        (
            "infer_binding (x High)",
            ns_per_call(|| {
                infer_binding(&p, &TwoPointScheme, [(p.var("x"), TwoPoint::High)]).is_ok()
            }),
        ),
        (
            "explore all interleavings (x = 1)",
            ns_per_call(|| explore(&p, &x_high, ExploreLimits::default()).states),
        ),
        (
            "one round-robin run (x = 1)",
            ns_per_call(|| {
                let mut m = Machine::with_inputs(&p, &x_high);
                run(&mut m, &mut RoundRobin::new(), 10_000);
                m.get(p.var("y"))
            }),
        ),
    ];
    println!("\n| Figure 3 procedure | µs |");
    println!("|---|---|");
    for (name, ns) in costs {
        println!("| {name} | {:.2} |", ns / 1e3);
    }

    // k-bit channel.
    println!("\n| k | value sent | value decoded | machine steps | run µs |");
    println!("|---|---|---|---|---|");
    for k in [1u32, 2, 4, 8, 16] {
        let chan = kbit_channel(k);
        let x = (1i64 << k) - 2;
        let inputs = [(chan.var("x"), x)];
        let mut m = Machine::with_inputs(&chan, &inputs);
        assert!(run(&mut m, &mut RoundRobin::new(), 1_000_000).terminated());
        let y = decode_transmitted(m.get(chan.var("y")), k);
        assert_eq!(y, x);
        let ns = ns_per_call(|| {
            let mut m = Machine::with_inputs(&chan, &inputs);
            run(&mut m, &mut RoundRobin::new(), 1_000_000);
            m.get(chan.var("y"))
        });
        println!("| {k} | {x} | {y} | {} | {:.1} |", m.steps(), ns / 1e3);
    }
    println!();
}

fn e5_e6_theorems() {
    println!("## E5/E6 — Theorems 1 & 2 sweep\n");
    let cfg = GenConfig {
        target_stmts: 30,
        max_depth: 5,
        n_vars: 4,
        n_sems: 2,
        bounded_loops: true,
    };
    let (mut certified, mut rejected, mut divergent) = (0, 0, 0);
    for seed in 0..300u64 {
        let program = generate(&cfg, seed);
        let sbind = random_binding(&program, &TwoPointScheme, seed ^ 0xABCD);
        let cert = certify(&program, &sbind).certified();
        let proof = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
        let checks = check_proof(&program.body, &proof).is_ok();
        match (cert, checks) {
            (true, true) => certified += 1,
            (false, false) => rejected += 1,
            _ => divergent += 1,
        }
    }
    println!("| corpus | certified ∧ proof checks | rejected ∧ proof fails | divergent |");
    println!("|---|---|---|---|");
    println!("| 300 random (program, binding) pairs | {certified} | {rejected} | {divergent} |");
    assert_eq!(divergent, 0, "Theorem 1/2 equivalence must be exact");
    // Uniform bindings always certify, adding positive-direction coverage.
    let mut uniform_ok = 0;
    for seed in 1_000..1_040u64 {
        let program = generate(&cfg, seed);
        let sbind = StaticBinding::uniform(&program.symbols, &TwoPointScheme);
        let proof = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
        assert!(certify(&program, &sbind).certified());
        assert!(check_proof(&program.body, &proof).is_ok());
        uniform_ok += 1;
    }
    println!("| 40 uniform-binding pairs (all certified) | {uniform_ok} | 0 | 0 |");
    println!();
}

/// Nominal program sizes of the E7 sweep, in statements.
const SIZES: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// One E7 family at about `size` statements.
fn family(name: &str, size: usize) -> Program {
    match name {
        "chain" => sequential_chain(size, 8),
        "loops" => loop_heavy(size / 2),
        "sync" => sync_heavy(size / 6),
        "branchy" => branchy(size.ilog2() as usize - 1),
        _ => unreachable!("unknown family {name}"),
    }
}

fn e7_linearity() {
    println!("## E7 — §6 linear-time claim (ns per statement)\n");
    let header: Vec<String> = SIZES.iter().map(|n| format!("~{n}")).collect();
    println!("| series | {} |", header.join(" | "));
    println!("|---|{}", "---|".repeat(SIZES.len()));
    type Mechanism = fn(&Program, &StaticBinding<TwoPoint>) -> bool;
    let series: [(&str, &str, Mechanism); 6] = [
        ("CFM chain", "chain", |p, b| certify(p, b).certified()),
        ("CFM loops", "loops", |p, b| certify(p, b).certified()),
        ("CFM sync", "sync", |p, b| certify(p, b).certified()),
        ("CFM branchy", "branchy", |p, b| certify(p, b).certified()),
        ("Denning chain", "chain", |p, b| {
            denning_certify(p, b).certified()
        }),
        ("quadratic ablation, chain", "chain", certify_quadratic),
    ];
    for (label, fam, mechanism) in series {
        let cells: Vec<String> = SIZES
            .iter()
            .map(|&size| {
                let program = family(fam, size);
                let binding = StaticBinding::uniform(&program.symbols, &TwoPointScheme);
                assert!(mechanism(&program, &binding), "{label} at {size}");
                let ns = ns_per_call(|| mechanism(&program, &binding));
                format!("{:.1}", ns / program.statement_count() as f64)
            })
            .collect();
        println!("| {label} | {} |", cells.join(" | "));
    }
    // The claim holds "once the program has been parsed": parsing is
    // measured on its own, as throughput of the chain's source text.
    let cells: Vec<String> = SIZES
        .iter()
        .map(|&size| {
            let text = print_program(&sequential_chain(size, 8));
            let ns = ns_per_call(|| parse(&text).unwrap().statement_count());
            format!("{:.1}", text.len() as f64 / ns * 1e9 / (1 << 20) as f64)
        })
        .collect();
    println!("| parse chain (MiB/s) | {} |", cells.join(" | "));
    println!("\n(flat rows = linear; the ablation row grows with size)\n");
}

fn leak_cases() -> Vec<(&'static str, Program)> {
    [
        ("direct assignment", "var h, l : integer; l := h"),
        (
            "implicit (both arms)",
            "var h, l : integer; if h = 0 then l := 1 else l := 2",
        ),
        (
            "implicit (untaken arm)",
            "var h, l : integer; if h = 0 then l := 1",
        ),
        (
            "loop-carried count",
            "var h, l : integer; while h > 0 do begin l := l + 1; h := h - 1 end",
        ),
        (
            "synchronization",
            "var h, l : integer; sem : semaphore;
             cobegin if h = 0 then signal(sem) || begin wait(sem); l := 0 end coend",
        ),
        ("no flow (constant)", "var h, l : integer; l := 7"),
        (
            "dead store (§5.2)",
            "var h, l : integer; begin h := 0; l := h end",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n, parse(s).unwrap()))
    .collect()
}

fn e10_leak_matrix() {
    println!("## E10 — leak matrix\n");
    println!("(the monitor columns are per run: a leak is only caught if the");
    println!("run that reveals the secret is itself flagged; the cost columns");
    println!("time one certify, one monitored h=0 run and the ground truth)\n");
    println!(
        "| program | interferes? | CFM | monitor (h=0 run) | monitor (h=1 run) \
         | certify ns | monitor run µs | ground truth µs |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (name, program) in leak_cases() {
        let h = program.var("h");
        let l = program.var("l");
        let ground_truth = || check_binary_secret(&program, h, &[l], ExploreLimits::default());
        let ni = ground_truth();
        let binding =
            StaticBinding::uniform(&program.symbols, &TwoPointScheme).with(h, TwoPoint::High);
        let cfm_rejects = !certify(&program, &binding).certified();
        // The monitor starts from the same labels CFM certifies under.
        let labels: Vec<TwoPoint> = program
            .symbols
            .iter()
            .map(|(id, _)| *binding.class(id))
            .collect();
        let monitored_run = |secret: i64| {
            let machine = Machine::with_inputs(&program, &[(h, secret)]);
            let mut mon = TaintMonitor::new(machine, labels.clone(), TwoPoint::Low);
            mon.run(&mut RoundRobin::new(), 100_000);
            mon.labels()[l.index()] == TwoPoint::High
        };
        let per_run: Vec<&str> = [0i64, 1]
            .iter()
            .map(|&secret| {
                if monitored_run(secret) {
                    "flags"
                } else {
                    "silent"
                }
            })
            .collect();
        println!(
            "| {name} | {} | {} | {} | {} | {:.0} | {:.2} | {:.2} |",
            if ni.interferes { "yes" } else { "no" },
            if cfm_rejects { "rejects" } else { "certifies" },
            per_run[0],
            per_run[1],
            ns_per_call(|| certify(&program, &binding).certified()),
            ns_per_call(|| monitored_run(0)) / 1e3,
            ns_per_call(|| ground_truth().interferes) / 1e3,
        );
        if ni.interferes {
            assert!(cfm_rejects, "{name}: soundness violation!");
        }
    }
    println!();
}

fn verdict(certified: bool) -> &'static str {
    if certified {
        "certifies"
    } else {
        "REJECTS"
    }
}
