//! The pass manager: pluggable analyses over one program, one report.

use std::panic::{self, AssertUnwindSafe};

use secflow_lang::span::LineIndex;
use secflow_lang::{Diag, Program, Severity};

use crate::atomicity::AtomicityPass;
use crate::dataflow::DataflowPass;
use crate::deadlock::DeadlockPass;
use crate::footprint::RacePass;
use crate::provenance::ProvenancePass;
use crate::sem_statics::SemStaticsPass;

/// One static analysis over a parsed program.
///
/// Passes push diagnostics into a shared sink; the [`PassManager`]
/// sorts and dedups afterwards, so passes never need to coordinate
/// ordering with each other.
pub trait AnalysisPass {
    /// Short kebab-case pass name (for `--help` and logs).
    fn name(&self) -> &'static str;

    /// Runs the pass, appending findings to `out`.
    fn run(&self, program: &Program, out: &mut Vec<Diag>);

    /// Runs the pass with a cooperative cancellation hook. Passes that
    /// can run long (e.g. state-space exploration) should override this
    /// and poll `should_stop`; the default ignores the hook.
    fn run_with(&self, program: &Program, out: &mut Vec<Diag>, should_stop: &dyn Fn() -> bool) {
        let _ = should_stop;
        self.run(program, out);
    }
}

/// Runs a configurable sequence of [`AnalysisPass`]es.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn AnalysisPass>>,
}

impl PassManager {
    /// An empty manager; register passes with [`register`](Self::register).
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// The standard pipeline: semaphore statics, static deadlock
    /// detection, dataflow, global-flow provenance, atomicity, and the
    /// footprint/race analysis.
    pub fn with_default_passes() -> PassManager {
        let mut pm = PassManager::new();
        pm.register(Box::new(SemStaticsPass));
        pm.register(Box::new(DeadlockPass::default()));
        pm.register(Box::new(DataflowPass));
        pm.register(Box::new(ProvenancePass));
        pm.register(Box::new(AtomicityPass));
        pm.register(Box::new(RacePass));
        pm
    }

    /// Appends a pass to the pipeline.
    pub fn register(&mut self, pass: Box<dyn AnalysisPass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass and collects a sorted, deduped report.
    pub fn run(&self, program: &Program) -> AnalysisReport {
        self.run_with(program, &|| false)
    }

    /// [`run`](Self::run) with a cooperative cancellation hook.
    ///
    /// Each pass is isolated with `catch_unwind`: a panicking pass
    /// degrades to one `SF000` internal-error diagnostic (its partial
    /// findings are discarded) instead of killing the whole pipeline.
    /// `should_stop` is checked between passes and forwarded to each
    /// pass's [`AnalysisPass::run_with`]; once it returns `true` the
    /// remaining passes are skipped and the report is marked
    /// `cancelled`.
    pub fn run_with(&self, program: &Program, should_stop: &dyn Fn() -> bool) -> AnalysisReport {
        let mut diags = Vec::new();
        let mut passes_run = 0usize;
        let mut pass_panics = 0usize;
        let mut cancelled = false;
        for pass in &self.passes {
            if should_stop() {
                cancelled = true;
                break;
            }
            let mut local = Vec::new();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pass.run_with(program, &mut local, should_stop);
            }));
            passes_run += 1;
            match outcome {
                Ok(()) => diags.append(&mut local),
                Err(_) => {
                    pass_panics += 1;
                    diags.push(Diag::error(
                        "SF000",
                        format!("internal error: analysis pass `{}` panicked", pass.name()),
                        program.body.span(),
                    ));
                }
            }
        }
        let mut report = AnalysisReport::from_diags(diags);
        report.passes_run = passes_run;
        report.pass_panics = pass_panics;
        report.cancelled = cancelled;
        report
    }
}

/// The combined outcome of a pass pipeline.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnalysisReport {
    /// All diagnostics, sorted by (span, code, message) and deduped.
    pub diags: Vec<Diag>,
    /// How many passes produced this report.
    pub passes_run: usize,
    /// How many passes panicked and were degraded to `SF000`.
    pub pass_panics: usize,
    /// `true` if cancellation skipped at least the remaining passes.
    pub cancelled: bool,
}

impl AnalysisReport {
    /// Builds a report from raw diagnostics: sorts deterministically
    /// (by span, then code, then message) and drops exact duplicates.
    pub fn from_diags(mut diags: Vec<Diag>) -> AnalysisReport {
        diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        diags.dedup();
        AnalysisReport {
            diags,
            passes_run: 0,
            pass_panics: 0,
            cancelled: false,
        }
    }

    /// `true` iff no pass found anything at all.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// The most severe finding, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity).max()
    }

    /// Renders every diagnostic against `source` (human-readable, with
    /// carets). Empty string for a clean report.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render(source));
        }
        out
    }

    /// Renders the report as JSON lines: one object per diagnostic with
    /// `code`, `severity`, `line`, `col`, `message`, plus `file` (when
    /// given), `fix` (when present) and `notes` (when non-empty).
    pub fn to_json_lines(&self, file: Option<&str>, source: &str) -> String {
        let idx = LineIndex::new(source);
        let mut out = String::new();
        for d in &self.diags {
            let (line, col) = idx.line_col(d.span.start);
            out.push('{');
            if let Some(file) = file {
                out.push_str(&format!("\"file\":\"{}\",", json_escape(file)));
            }
            out.push_str(&format!(
                "\"code\":\"{}\",\"severity\":\"{}\",\"line\":{line},\"col\":{col},\"message\":\"{}\"",
                json_escape(d.code),
                d.severity,
                json_escape(&d.message)
            ));
            if let Some(fix) = &d.fix {
                out.push_str(&format!(",\"fix\":\"{}\"", json_escape(fix)));
            }
            if !d.notes.is_empty() {
                out.push_str(",\"notes\":[");
                for (i, (msg, span)) in d.notes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let (nline, ncol) = idx.line_col(span.start);
                    out.push_str(&format!(
                        "{{\"message\":\"{}\",\"line\":{nline},\"col\":{ncol}}}",
                        json_escape(msg)
                    ));
                }
                out.push(']');
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::{parse, Span};

    #[test]
    fn report_sorts_and_dedups() {
        let d1 = Diag::warning("SF021", "later", Span::new(9, 10));
        let d2 = Diag::error("SF003", "earlier", Span::new(2, 4));
        let report = AnalysisReport::from_diags(vec![d1.clone(), d2.clone(), d1.clone()]);
        assert_eq!(report.diags, vec![d2, d1]);
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn clean_report_renders_empty() {
        let report = AnalysisReport::from_diags(vec![]);
        assert!(report.clean());
        assert_eq!(report.render(""), "");
        assert_eq!(report.to_json_lines(None, ""), "");
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn json_lines_resolve_positions_and_escape() {
        let src = "ab\ncd";
        let d = Diag::warning("SF020", "quote \" and\nnewline", Span::new(3, 4))
            .with_fix("do\tless")
            .with_note("see also", Span::new(0, 1));
        let report = AnalysisReport::from_diags(vec![d]);
        let line = report.to_json_lines(Some("p.sf"), src);
        assert!(
            line.starts_with("{\"file\":\"p.sf\",\"code\":\"SF020\""),
            "{line}"
        );
        assert!(line.contains("\"line\":2,\"col\":1"), "{line}");
        assert!(line.contains("quote \\\" and\\nnewline"), "{line}");
        assert!(line.contains("\"fix\":\"do\\tless\""), "{line}");
        assert!(
            line.contains("\"notes\":[{\"message\":\"see also\",\"line\":1,\"col\":1}]"),
            "{line}"
        );
        assert!(line.ends_with("}\n"), "{line}");
    }

    struct PanicPass;

    impl AnalysisPass for PanicPass {
        fn name(&self) -> &'static str {
            "panic-injector"
        }

        fn run(&self, _program: &Program, out: &mut Vec<Diag>) {
            out.push(Diag::warning("SF999", "partial", Span::new(0, 1)));
            panic!("injected pass failure");
        }
    }

    #[test]
    fn panicking_pass_degrades_to_sf000() {
        let mut pm = PassManager::new();
        pm.register(Box::new(PanicPass));
        pm.register(Box::new(SemStaticsPass));
        let p = parse("var x : integer; x := 1").unwrap();
        // Silence the default panic hook's backtrace for the injected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = pm.run(&p);
        std::panic::set_hook(prev);
        assert_eq!(report.passes_run, 2);
        assert_eq!(report.pass_panics, 1);
        assert!(!report.cancelled);
        let codes: Vec<_> = report.diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"SF000"), "{codes:?}");
        assert!(
            !codes.contains(&"SF999"),
            "partial findings of a panicked pass are discarded: {codes:?}"
        );
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn cancellation_skips_remaining_passes() {
        let pm = PassManager::with_default_passes();
        let p = parse("var x : integer; x := 1").unwrap();
        let report = pm.run_with(&p, &|| true);
        assert!(report.cancelled);
        assert_eq!(report.passes_run, 0);
    }

    #[test]
    fn default_pipeline_runs_six_passes() {
        let pm = PassManager::with_default_passes();
        assert_eq!(
            pm.pass_names(),
            vec![
                "sem-statics",
                "deadlock",
                "dataflow",
                "provenance",
                "atomicity",
                "race"
            ]
        );
        let p = parse("var x : integer; x := 1").unwrap();
        let report = pm.run(&p);
        assert_eq!(report.passes_run, 6);
        assert!(report.clean(), "{:?}", report.diags);
    }

    #[test]
    fn report_is_independent_of_registration_order() {
        // The deterministic (span, code, message) sort means the final
        // report never depends on the order passes were registered —
        // pinned here so diagnostic ordering stays stable as passes are
        // added or reordered.
        let p = parse(
            "var x : integer; s : semaphore;
             cobegin begin x := 1; signal(s) end || begin wait(s); x := 2; wait(s) end coend",
        )
        .unwrap();
        let forward = PassManager::with_default_passes().run(&p);
        let mut reversed = PassManager::new();
        reversed.register(Box::new(RacePass));
        reversed.register(Box::new(AtomicityPass));
        reversed.register(Box::new(ProvenancePass));
        reversed.register(Box::new(DataflowPass));
        reversed.register(Box::new(DeadlockPass::default()));
        reversed.register(Box::new(SemStaticsPass));
        let backward = reversed.run(&p);
        assert!(!forward.clean(), "fixture should produce diagnostics");
        assert_eq!(forward.diags, backward.diags);
    }
}
