//! End-to-end tests of the `secflow` binary: every subcommand, exit
//! codes, and report shapes.

use std::path::PathBuf;
use std::process::{Command, Output};

use secflow_server::{Json, Limits, Service};

fn secflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_secflow"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_program(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("secflow-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const LEAKY: &str = "var h, l : integer; l := h";
const SAFE: &str = "var h, l : integer; l := 7";
const SYNC: &str = "var h, l : integer; sem : semaphore;
cobegin if h = 0 then signal(sem) || begin wait(sem); l := 0 end coend";

#[test]
fn help_prints_usage() {
    let out = secflow(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = secflow(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn unknown_command_is_an_error() {
    let out = secflow(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn certify_rejects_leak_with_exit_1() {
    let p = write_program("leaky.sfl", LEAKY);
    let out = secflow(&["certify", p.to_str().unwrap(), "--class", "h=high"]);
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.contains("NOT certified"), "{s}");
    assert!(s.contains("direct flow"), "{s}");
}

#[test]
fn certify_accepts_safe_program_with_exit_0() {
    let p = write_program("safe.sfl", SAFE);
    let out = secflow(&["certify", p.to_str().unwrap(), "--class", "h=high"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("certified"));
}

#[test]
fn certify_baseline_misses_the_sync_channel() {
    let p = write_program("sync.sfl", SYNC);
    // Semaphore High so the local guard check passes in both mechanisms.
    let args_common = ["--class", "h=high", "--class", "sem=high"];
    let cfm = secflow(&[&["certify", p.to_str().unwrap()], &args_common[..]].concat());
    assert_eq!(cfm.status.code(), Some(1), "CFM rejects");
    let base = secflow(
        &[
            &["certify", p.to_str().unwrap(), "--baseline"],
            &args_common[..],
        ]
        .concat(),
    );
    assert!(base.status.success(), "baseline certifies");
}

#[test]
fn certify_with_linear_lattice() {
    let p = write_program("linear.sfl", "var a, b : integer; b := a");
    let ok = secflow(&[
        "certify",
        p.to_str().unwrap(),
        "--lattice",
        "linear:4",
        "--class",
        "a=1",
        "--class",
        "b=3",
    ]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    let bad = secflow(&[
        "certify",
        p.to_str().unwrap(),
        "--lattice",
        "linear:4",
        "--class",
        "a=3",
        "--class",
        "b=1",
    ]);
    assert_eq!(bad.status.code(), Some(1));
}

#[test]
fn a_linear_class_takes_at_most_one_level_prefix() {
    let p = write_program("prefix.sfl", "var x, y : integer; x := y");
    let certify = |class: &str| {
        secflow(&[
            "certify",
            p.to_str().unwrap(),
            "--lattice",
            "linear:4",
            "--class",
            &format!("x={class}"),
        ])
    };
    for good in ["3", "L3", "l3"] {
        let out = certify(good);
        assert!(out.status.success(), "{good}: {}", stdout(&out));
    }
    let out = certify("LL3");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown class `LL3`"), "{err}");
}

#[test]
fn prove_emits_a_proof_for_certified_programs() {
    let p = write_program("provable.sfl", "var h, l : integer; l := 7");
    let out = secflow(&["prove", p.to_str().unwrap(), "--class", "h=high"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let s = stdout(&out);
    assert!(s.contains("completely invariant flow proof"), "{s}");
    assert!(s.contains("assignment axiom"), "{s}");
}

#[test]
fn prove_refuses_uncertified_programs() {
    let p = write_program("unprovable.sfl", LEAKY);
    let out = secflow(&["prove", p.to_str().unwrap(), "--class", "h=high"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("no completely invariant proof"));
}

#[test]
fn run_executes_and_prints_finals() {
    let p = write_program(
        "runme.sfl",
        "var x, y : integer; begin y := x * 2; x := 0 end",
    );
    let out = secflow(&["run", p.to_str().unwrap(), "--input", "x=21"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("y = 42"), "{s}");
    assert!(s.contains("Terminated"), "{s}");
}

#[test]
fn run_reports_deadlock_with_exit_1() {
    let p = write_program("dead.sfl", "var s : semaphore; wait(s)");
    let out = secflow(&["run", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("Deadlocked"));
}

#[test]
fn run_with_trace_lists_steps() {
    let p = write_program("traced.sfl", "var x : integer; x := 1");
    let out = secflow(&["run", p.to_str().unwrap(), "--trace"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("P0"), "{}", stdout(&out));
}

#[test]
fn explore_counts_outcomes() {
    let p = write_program(
        "race.sfl",
        "var x : integer; cobegin x := 1 || x := 2 coend",
    );
    let out = secflow(&["explore", p.to_str().unwrap()]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("terminal outcomes: 2"), "{s}");
    assert!(s.contains("x=1"), "{s}");
    assert!(s.contains("x=2"), "{s}");
}

#[test]
fn leaktest_finds_interference() {
    let p = write_program("leak2.sfl", LEAKY);
    let out = secflow(&["leaktest", p.to_str().unwrap(), "--secret", "h"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("INTERFERES"));
}

#[test]
fn leaktest_passes_safe_programs() {
    let p = write_program("safe2.sfl", SAFE);
    let out = secflow(&["leaktest", p.to_str().unwrap(), "--secret", "h"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no interference"));
}

#[test]
fn infer_prints_least_binding() {
    let p = write_program(
        "infer.sfl",
        "var a, b, c : integer; begin b := a; c := b end",
    );
    let out = secflow(&["infer", p.to_str().unwrap(), "--pin", "a=high"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("b: High"), "{s}");
    assert!(s.contains("c: High"), "{s}");
}

#[test]
fn infer_reports_unsatisfiable_pins() {
    let p = write_program("unsat.sfl", LEAKY);
    let out = secflow(&[
        "infer",
        p.to_str().unwrap(),
        "--pin",
        "h=high",
        "--pin",
        "l=low",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("no certifying binding"));
}

#[test]
fn fig3_demo_runs() {
    let out = secflow(&["fig3", "--x", "0"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("CFM:      REJECTED"), "{s}");
    assert!(s.contains("Dennings: certified"), "{s}");
    assert!(s.contains("y = 1 (x was 0)"), "{s}");
}

#[test]
fn certify_emit_proof_then_checkproof_round_trips() {
    let dir = std::env::temp_dir().join("secflow-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program("emitme.sfl", SYNC);
    let prog = prog.to_str().unwrap();
    let cert_path = dir.join("emitted.json");
    let out = secflow(&[
        "certify",
        prog,
        "--default",
        "high",
        "--emit-proof",
        cert_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let cert = std::fs::read_to_string(&cert_path).unwrap();

    let out = secflow(&["checkproof", prog, "--proof", cert_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("certificate checks"));

    // `--json` prints exactly the verdict fields of the service's
    // `checkproof` reply.
    let out = secflow(&[
        "checkproof",
        prog,
        "--proof",
        cert_path.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let cli = Json::parse(stdout(&out).trim()).unwrap();
    let req = Json::Obj(vec![
        ("op".to_string(), Json::Str("checkproof".to_string())),
        ("source".to_string(), Json::Str(SYNC.to_string())),
        ("cert".to_string(), Json::Str(cert.clone())),
    ]);
    let reply = Service::new(4, Limits::default()).handle_line(&req.to_string());
    let reply = Json::parse(&reply).unwrap();
    let fields = cli.as_obj().unwrap();
    assert_eq!(fields.len(), 4, "{cli}");
    for (key, value) in fields {
        assert_eq!(reply.get(key), Some(value), "{key}: {reply}");
    }

    // One flipped byte is caught by the digest.
    let tampered_path = dir.join("tampered.json");
    std::fs::write(&tampered_path, cert.replacen("cobegin", "cobegiN", 1)).unwrap();
    let out = secflow(&[
        "checkproof",
        prog,
        "--proof",
        tampered_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("REJECTED at stage `digest`"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn checkproof_reports_syntax_errors() {
    let prog = write_program("cps.sfl", SAFE);
    let dir = std::env::temp_dir().join("secflow-cli-tests");
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "garbage {").unwrap();
    let out = secflow(&[
        "checkproof",
        prog.to_str().unwrap(),
        "--proof",
        bad.to_str().unwrap(),
    ]);
    // A file that is not a certificate is a rejected proof (analysis
    // failure, exit 1), not a usage error.
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.contains("certificate REJECTED at stage `json`"), "{s}");
}

/// However a client spells the lattice, the certificate names it once:
/// `certify --emit-proof` and the service write the same bytes for
/// `linear:04`, and the service writes them for `linear:4` too.
#[test]
fn certificates_name_the_lattice_canonically_in_the_cli_and_the_service() {
    const SOURCE: &str = "var a, b : integer; b := a";
    let prog = write_program("canonical.sfl", SOURCE);
    let cert_path = std::env::temp_dir()
        .join("secflow-cli-tests")
        .join("canonical.json");
    let out = secflow(&[
        "certify",
        prog.to_str().unwrap(),
        "--lattice",
        "linear:04",
        "--class",
        "a=1",
        "--class",
        "b=3",
        "--emit-proof",
        cert_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let cli = std::fs::read_to_string(&cert_path).unwrap();

    let service = Service::new(4, Limits::default());
    let certificate = |lattice: &str| {
        let req = Json::Obj(vec![
            ("op".to_string(), Json::Str("certify".to_string())),
            ("source".to_string(), Json::Str(SOURCE.to_string())),
            ("lattice".to_string(), Json::Str(lattice.to_string())),
            (
                "classes".to_string(),
                Json::Obj(vec![
                    ("a".to_string(), Json::Str("1".to_string())),
                    ("b".to_string(), Json::Str("3".to_string())),
                ]),
            ),
            ("with_proof".to_string(), Json::Bool(true)),
        ]);
        let reply = Json::parse(&service.handle_line(&req.to_string())).unwrap();
        let cert = reply.get("certificate").and_then(Json::as_str);
        cert.unwrap_or_else(|| panic!("{reply}")).to_string()
    };
    let padded = certificate("linear:04");
    assert_eq!(cli, padded, "the CLI and the service disagree");
    assert_eq!(padded, certificate("linear:4"), "the spelling leaked in");
    assert!(cli.contains(r#""lattice":"linear:4""#), "{cli}");
}

#[test]
fn flows_lists_constraints() {
    let p = write_program("flows.sfl", SYNC);
    let out = secflow(&["flows", p.to_str().unwrap()]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("h -> sem"), "{s}");
    assert!(s.contains("sem -> l"), "{s}");
}

#[test]
fn flows_dot_highlights_violations() {
    let p = write_program("flows2.sfl", SYNC);
    let out = secflow(&["flows", p.to_str().unwrap(), "--dot", "--class", "h=high"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("digraph"), "{s}");
    assert!(s.contains("color=red"), "{s}");
}

#[test]
fn atomicity_flags_racy_increments() {
    let p = write_program(
        "racy.sfl",
        "var x : integer; cobegin x := x + 1 || x := x + 1 coend",
    );
    let out = secflow(&["atomicity", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout(&out).contains("shared variables"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn atomicity_passes_single_reference_programs() {
    let p = write_program("clean.sfl", SYNC);
    let out = secflow(&["atomicity", p.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("at most one"));
}

#[test]
fn parse_errors_render_with_carets() {
    let p = write_program("bad.sfl", "var x : integer; x := ");
    let out = secflow(&["certify", p.to_str().unwrap(), "--default", "low"]);
    // A parse error is an analysis failure (exit 1); exit 2 is reserved
    // for bad invocations.
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("expected an expression"), "{err}");
}

#[test]
fn lint_flags_the_sync_channel_program() {
    let p = write_program("lint_sync.sfl", SYNC);
    let out = secflow(&["lint", p.to_str().unwrap()]);
    // Warnings and infos do not fail the lint; only errors do.
    assert!(out.status.success(), "{}", stdout(&out));
    let s = stdout(&out);
    assert!(s.contains("SF010"), "{s}"); // may-deadlock
    assert!(s.contains("SF030"), "{s}"); // wait raises the flow class
    assert!(s.contains("1 file(s) linted"), "{s}");
}

#[test]
fn lint_error_severity_exits_1() {
    let p = write_program("lint_starve.sfl", "var s : semaphore; wait(s)");
    let out = secflow(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.contains("SF003"), "{s}"); // unsatisfiable wait is an error
}

#[test]
fn lint_json_emits_one_object_per_diagnostic() {
    let p = write_program("lint_json.sfl", SYNC);
    let out = secflow(&["lint", p.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let s = stdout(&out);
    for line in s.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"code\":\"SF"), "{line}");
        assert!(line.contains("\"severity\":"), "{line}");
        assert!(line.contains("\"line\":"), "{line}");
    }
    assert!(s.contains("\"code\":\"SF010\""), "{s}");
}

#[test]
fn lint_reports_parse_errors_as_diagnostics() {
    let p = write_program("lint_bad.sfl", "var x : integer; x := ");
    let out = secflow(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.contains("expected an expression"), "{s}");
    assert!(s.contains("1 error(s)"), "{s}");
}

#[test]
fn lint_accepts_a_directory() {
    let dir = std::env::temp_dir().join("secflow-cli-lint-dir");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.sf"), SAFE).unwrap();
    std::fs::write(dir.join("b.sf"), SYNC).unwrap();
    std::fs::write(dir.join("ignored.txt"), "not a program").unwrap();
    let out = secflow(&["lint", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stdout(&out));
    let s = stdout(&out);
    assert!(s.contains("2 file(s) linted"), "{s}");
    assert!(s.contains("b.sf:"), "{s}");
}

#[test]
fn undeclared_class_name_is_an_error() {
    let p = write_program("missing.sfl", SAFE);
    let out = secflow(&["certify", p.to_str().unwrap(), "--class", "ghost=high"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not declared"));
}

#[test]
fn serve_with_nonexistent_cache_dir_is_a_usage_error() {
    let out = secflow(&["serve", "--cache-dir", "/definitely/not/a/real/dir"]);
    // A typo'd path must be a structured exit-2 usage error up front —
    // never a panic, and never a silently created store elsewhere.
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("not an existing directory"), "{err}");
    assert!(err.contains("/definitely/not/a/real/dir"), "{err}");
}

#[test]
fn serve_with_unwritable_cache_dir_is_a_usage_error() {
    // A file where a directory is expected fails the same way.
    let file = write_program("not_a_dir.sfl", SAFE);
    let out = secflow(&["serve", "--cache-dir", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not an existing directory"));
}

#[test]
fn unknown_flags_are_usage_errors_that_name_the_flag() {
    // A typo must not serve memory-only, and a removed flag must not be
    // silently ignored.
    let dir = std::env::temp_dir();
    for args in [
        ["serve", "--cachedir", dir.to_str().unwrap()],
        ["serve", "--front-end", "threaded"],
        ["prove", "--emit", "proof"],
        ["checkproof", "--lattice", "two"],
        ["explore", "--threads", "4"],
        ["lint", "--threads", "4"],
        ["serve", "--max-threads", "8"],
        ["serve", "--max-hops", "3"],
    ] {
        let out = secflow(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains(&format!("unknown flag `{}`", args[1])),
            "{err}"
        );
    }
}

/// A reader that closes stdout early ends the output; it does not crash
/// the command. The program is ~128 KB, twice a pipe's buffer, so the
/// writer is still writing when the pipe closes.
#[test]
fn a_closed_stdout_pipe_ends_the_output_without_a_panic() {
    use std::io::Read;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_secflow"))
        .args(["gen", "--chain", "8000", "--vars", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut pipe = child.stdout.take().unwrap();
    let mut first = [0u8; 1];
    pipe.read_exact(&mut first).unwrap();
    drop(pipe);
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn gen_sizes_out_of_range_are_usage_errors_that_name_the_range() {
    // The workload generators assert their sizes; `gen` checks them
    // first instead of panicking.
    for (args, message) in [
        (
            &["--philosophers", "1"][..],
            "--philosophers must be 2 to 6",
        ),
        (&["--philosophers", "7"], "--philosophers must be 2 to 6"),
        (
            &["--philosophers", "3", "--meals", "0"],
            "--meals must be at least 1",
        ),
        (
            &["--philosophers", "3", "--meals", "-1"],
            "--meals must be at least 1",
        ),
        (&["--chain", "0"], "--chain must be at least 1"),
        (
            &["--chain", "5", "--vars", "0"],
            "--vars must be at least 2",
        ),
        (&["--indep", "0"], "--indep must be at least 2"),
        (
            &["--indep", "1", "--steps", "0"],
            "--indep must be at least 2",
        ),
        (
            &["--indep", "2", "--steps", "0"],
            "--steps must be at least 1",
        ),
    ] {
        let out = secflow(&[&["gen"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(message), "{args:?}: {err}");
    }
    // The bounds themselves are valid sizes.
    for args in [
        &["--philosophers", "2", "--meals", "1"][..],
        &["--philosophers", "6"],
        &["--chain", "1", "--vars", "2"],
        &["--indep", "2", "--steps", "1"],
    ] {
        let out = secflow(&[&["gen"][..], args].concat());
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }
}

#[test]
fn persistence_flags_require_cache_dir() {
    let out = secflow(&["serve", "--fsync", "always"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("require --cache-dir"));
}

#[test]
fn bad_fsync_mode_is_a_usage_error() {
    let dir = std::env::temp_dir().join("secflow-cli-fsync-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = secflow(&[
        "serve",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--fsync",
        "sometimes",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("bad fsync mode"), "{err}");
}

#[test]
fn cache_inspect_missing_dir_is_a_usage_error() {
    let out = secflow(&["cache-inspect", "/definitely/not/a/real/dir"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot inspect"));
}

#[test]
fn cache_inspect_reports_empty_and_corrupt_stores() {
    let dir = std::env::temp_dir().join("secflow-cli-inspect-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // An empty store is clean.
    let out = secflow(&["cache-inspect", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("CLEAN"), "{}", stdout(&out));

    // Garbage in the journal: reported and skipped, exit 1.
    std::fs::write(dir.join("journal.wal"), b"this is not a frame").unwrap();
    let out = secflow(&["cache-inspect", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("CORRUPT"), "{}", stdout(&out));

    // --json emits one machine-readable object.
    let out = secflow(&["cache-inspect", dir.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.trim().starts_with('{') && s.trim().ends_with('}'), "{s}");
    assert!(s.contains("\"frames_skipped\":1"), "{s}");
    assert!(s.contains("\"clean\":false"), "{s}");
}
