//! Cross-crate pipeline properties: parse → print → reparse stability,
//! analysis invariance under printing, policy layer round-trips, and the
//! linearity of the check count (the cheap proxy for E7 validated in the
//! test-suite; wall-clock linearity is E7's table in `experiments`).

use proptest::prelude::*;

use secflow::cfm::{certify, denning_certify, Policy, StaticBinding};
use secflow::lang::{metrics::measure, parse, print_program, Program};
use secflow::lattice::{TwoPoint, TwoPointScheme};
use secflow::workload::{
    branchy, generate, loop_heavy, random_binding, sequential_chain, sync_heavy, GenConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing then reparsing preserves program structure.
    #[test]
    fn print_parse_is_stable(seed in 0u64..100_000) {
        let cfg = GenConfig { target_stmts: 50, ..GenConfig::default() };
        let p = generate(&cfg, seed);
        let text = print_program(&p);
        let q = parse(&text).unwrap();
        prop_assert_eq!(print_program(&q), text);
        prop_assert_eq!(p.statement_count(), q.statement_count());
        let (mp, mq) = (measure(&p), measure(&q));
        prop_assert_eq!(mp.expr_nodes, mq.expr_nodes);
        prop_assert_eq!(mp.waits, mq.waits);
    }

    /// Certification verdicts survive the print/parse round trip.
    #[test]
    fn analysis_is_representation_independent(seed in 0u64..100_000, bseed in 0u64..100_000) {
        let cfg = GenConfig { target_stmts: 40, ..GenConfig::default() };
        let p = generate(&cfg, seed);
        let q = parse(&print_program(&p)).unwrap();
        // Bindings are positional: the printer preserves declaration
        // order, so the same binding applies to both.
        let bp = random_binding(&p, &TwoPointScheme, bseed);
        let bq = random_binding(&q, &TwoPointScheme, bseed);
        prop_assert_eq!(
            certify(&p, &bp).certified(),
            certify(&q, &bq).certified()
        );
        prop_assert_eq!(
            denning_certify(&p, &bp).certified(),
            denning_certify(&q, &bq).certified()
        );
    }

    /// The linear prefix-join composition check is equivalent to the
    /// literal quadratic Figure 2 transcription.
    #[test]
    fn linear_and_quadratic_cfm_agree(seed in 0u64..100_000, bseed in 0u64..100_000) {
        use secflow::cfm::certify_quadratic;
        let cfg = GenConfig { target_stmts: 40, ..GenConfig::default() };
        let p = generate(&cfg, seed);
        let b = random_binding(&p, &TwoPointScheme, bseed);
        prop_assert_eq!(certify(&p, &b).certified(), certify_quadratic(&p, &b));
    }

    /// CFM is at least as strict as the baseline, always.
    #[test]
    fn cfm_is_stricter_than_the_baseline(seed in 0u64..100_000, bseed in 0u64..100_000) {
        let cfg = GenConfig { target_stmts: 40, ..GenConfig::default() };
        let p = generate(&cfg, seed);
        let b = random_binding(&p, &TwoPointScheme, bseed);
        if certify(&p, &b).certified() {
            prop_assert!(denning_certify(&p, &b).certified());
        }
    }
}

#[test]
fn check_count_grows_linearly_with_program_length() {
    // cert(S) evaluates O(1) checks per statement: for every E7 family
    // the measured check count per statement must stay flat as the
    // programs grow (branchy spans 255 to 65,535 statements). The sync
    // family runs through the same helper in the test below.
    let chain = [128, 256, 512, 1024, 2048].into_iter();
    assert_flat_checks("chain", chain.map(|k| sequential_chain(k, 8)));
    assert_flat_checks(
        "loops",
        [64, 128, 256, 512, 1024].into_iter().map(loop_heavy),
    );
    assert_flat_checks("branchy", (7..=15).map(branchy));
}

#[test]
fn sync_heavy_check_count_is_linear_too() {
    assert_flat_checks("sync", [64, 128, 256, 512].into_iter().map(sync_heavy));
}

fn assert_flat_checks(family: &str, programs: impl Iterator<Item = Program>) {
    let per_stmt: Vec<f64> = programs
        .map(|p| {
            let b = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
            certify(&p, &b).checks as f64 / p.statement_count() as f64
        })
        .collect();
    let (min, max) = per_stmt
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(
        max / min < 1.05,
        "{family}: checks per statement not flat: {per_stmt:?}"
    );
}

#[test]
fn policy_layer_round_trip() {
    let p = parse(
        "var intake, scrubbed, published : integer; gate : semaphore;
         begin
           scrubbed := intake - intake % 10;
           signal(gate);
           cobegin
             begin wait(gate); published := scrubbed end
           ||
             skip
           coend
         end",
    )
    .unwrap();
    let policy = Policy::new(TwoPointScheme)
        .classify("intake", TwoPoint::High)
        .default_class(TwoPoint::High);
    assert!(policy.check(&p).unwrap().certified());

    let leaky = Policy::new(TwoPointScheme)
        .classify("intake", TwoPoint::High)
        .classify("published", TwoPoint::Low)
        .default_class(TwoPoint::High);
    assert!(!leaky.check(&p).unwrap().certified());
}

#[test]
fn whole_pipeline_smoke() {
    // parse → certify → reject → infer → certify → prove → run.
    use secflow::lattice::Extended;
    use secflow::logic::{check_proof, prove};
    use secflow::runtime::{run, Machine, RoundRobin};

    let src = "var h, a, b : integer; s : semaphore;
               begin
                 if h > 0 then signal(s);
                 cobegin begin wait(s); a := 1 end || b := 2 coend
               end";
    let p = parse(src).unwrap();
    let bad = StaticBinding::uniform(&p.symbols, &TwoPointScheme).with(p.var("h"), TwoPoint::High);
    assert!(!certify(&p, &bad).certified());

    let fixed =
        secflow::cfm::infer_binding(&p, &TwoPointScheme, [(p.var("h"), TwoPoint::High)]).unwrap();
    assert!(certify(&p, &fixed).certified());
    assert_eq!(*fixed.class(p.var("b")), TwoPoint::Low, "b is unaffected");

    let proof = prove(&p, &fixed, Extended::Nil, Extended::Nil).unwrap();
    check_proof(&p.body, &proof).unwrap();

    let mut m = Machine::with_inputs(&p, &[(p.var("h"), 5)]);
    assert!(run(&mut m, &mut RoundRobin::new(), 10_000).terminated());
    assert_eq!(m.get(p.var("a")), 1);
    assert_eq!(m.get(p.var("b")), 2);
}
