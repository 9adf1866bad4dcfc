//! The §2.0 atomicity side-condition as an analysis pass (SF040).
//!
//! The actual check lives in [`secflow_core::check_atomicity`]; since
//! its violations are already unified [`Diag`]s,
//! this pass only forwards them into the shared sink.

use secflow_lang::{Diag, Program};

use crate::pass::AnalysisPass;

/// Flags actions making more than one reference to a variable writable
/// by a sibling process (paper §2.0, single-shared-reference condition).
pub struct AtomicityPass;

impl AnalysisPass for AtomicityPass {
    fn name(&self) -> &'static str {
        "atomicity"
    }

    fn run(&self, program: &Program, out: &mut Vec<Diag>) {
        out.extend(secflow_core::check_atomicity(program).violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;

    #[test]
    fn racy_increment_is_sf040() {
        let p = parse("var x : integer; cobegin x := x + 1 || x := x + 1 coend").unwrap();
        let mut out = Vec::new();
        AtomicityPass.run(&p, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.code == "SF040"));
    }

    #[test]
    fn clean_handoff_is_silent() {
        let p = parse(
            "var a, b : integer; s : semaphore;
             cobegin begin a := 1; signal(s) end || begin wait(s); b := a end coend",
        )
        .unwrap();
        let mut out = Vec::new();
        AtomicityPass.run(&p, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
