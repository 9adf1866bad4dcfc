//! Bulk certification: every `*.sf` file in a directory, through the
//! same worker pool and cache as the online server.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::client::{RemoteClient, RetryPolicy};
use crate::json::Json;
use crate::pool::Pool;
use crate::protocol::{Op, Request};
use crate::serve::ServerConfig;
use crate::service::Service;

/// Outcome of one file in a batch run.
#[derive(Clone, Debug)]
pub struct FileOutcome {
    /// Path of the certified file.
    pub path: PathBuf,
    /// `certified` / `REJECTED` / an error category.
    pub status: String,
    /// Statements certified (0 when the program never parsed).
    pub statements: u64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Service-side latency in microseconds.
    pub us: u64,
    /// Lint counts `(errors, warnings, infos)`; `None` when the lint op
    /// failed (e.g. the file never parsed).
    pub lint: Option<(u64, u64, u64)>,
}

/// Totals for the whole batch.
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Per-file outcomes, in directory order.
    pub files: Vec<FileOutcome>,
    /// Files that certified.
    pub certified: usize,
    /// Files the mechanism rejected.
    pub rejected: usize,
    /// Files that failed (parse/binding/fuel errors, unreadable files).
    pub errored: usize,
    /// Results served from the cache.
    pub cache_hits: usize,
    /// Wall-clock time for the whole batch, in microseconds.
    pub wall_us: u64,
}

/// Certifies every `*.sf` file under `dir` (sorted, non-recursive)
/// through a worker pool. `classes`/`default_class`/`lattice` apply to
/// every file; class names not declared by a given file are skipped for
/// that file.
pub fn run_batch(
    dir: &Path,
    classes: &[(String, String)],
    default_class: Option<&str>,
    lattice: &str,
    cfg: ServerConfig,
) -> Result<BatchSummary, String> {
    let paths = sf_files(dir)?;
    let service = Arc::new(Service::new(cfg.cache_capacity, cfg.limits));
    let pool = Pool::new(cfg.workers, cfg.queue_capacity);
    let (tx, rx) = mpsc::channel::<FileOutcome>();
    let start = Instant::now();

    for path in paths {
        let req = match file_request(&path, classes, default_class, lattice) {
            Ok(req) => req,
            Err(unreadable) => {
                let _ = tx.send(unreadable);
                continue;
            }
        };
        let service = Arc::clone(&service);
        let tx = tx.clone();
        // Blocking submit: in batch mode the producer waits for queue
        // space instead of shedding load.
        service.note_request();
        pool.submit(move || {
            let line = service.execute(&req);
            // Run the analysis passes as a second service op: same
            // cache, same metrics, one lint column per file.
            let lint_req = lint_request(req.source.clone());
            service.note_request();
            let lint_line = service.execute(&lint_req);
            let _ = tx.send(file_outcome(path, &line, Some(&lint_line)));
        })
        .map_err(|_| "worker pool closed unexpectedly".to_string())?;
    }
    drop(tx);
    let files = rx.into_iter().collect();
    pool.shutdown();
    Ok(BatchSummary::of(files, start))
}

/// Certifies every `*.sf` file under `dir` against a remote server at
/// `addr`, via the retrying client. Transient failures (connection
/// drops, queue-full shedding, timeouts) are retried per `policy`;
/// files that still fail after the budget surface as errored outcomes.
pub fn run_batch_remote(
    dir: &Path,
    classes: &[(String, String)],
    default_class: Option<&str>,
    lattice: &str,
    addr: &str,
    policy: RetryPolicy,
) -> Result<BatchSummary, String> {
    let paths = sf_files(dir)?;
    let mut client = RemoteClient::new(addr, policy);
    let start = Instant::now();
    let mut files = Vec::new();
    for path in paths {
        let req = match file_request(&path, classes, default_class, lattice) {
            Ok(req) => req,
            Err(unreadable) => {
                files.push(unreadable);
                continue;
            }
        };
        let line = match client.call(&req) {
            Ok(line) => line,
            Err(e) => {
                files.push(FileOutcome::failed(path, format!("unreachable ({e})")));
                continue;
            }
        };
        let lint_line = client.call(&lint_request(req.source.clone())).ok();
        files.push(file_outcome(path, &line, lint_line.as_deref()));
    }
    Ok(BatchSummary::of(files, start))
}

/// The `*.sf` files directly under `dir`, sorted; an error when it
/// cannot be read or holds none.
pub fn sf_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sf"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.sf files in `{}`", dir.display()));
    }
    Ok(paths)
}

impl FileOutcome {
    /// A file that got no reply: unreadable, or its server unreachable.
    fn failed(path: PathBuf, status: String) -> FileOutcome {
        FileOutcome {
            path,
            status,
            statements: 0,
            cached: false,
            us: 0,
            lint: None,
        }
    }
}

impl BatchSummary {
    /// Tallies the per-file outcomes of a batch that began at `start`.
    fn of(mut files: Vec<FileOutcome>, start: Instant) -> BatchSummary {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let mut summary = BatchSummary::default();
        for outcome in &files {
            match outcome.status.as_str() {
                "certified" => summary.certified += 1,
                "REJECTED" => summary.rejected += 1,
                _ => summary.errored += 1,
            }
            if outcome.cached {
                summary.cache_hits += 1;
            }
        }
        summary.files = files;
        summary.wall_us = start.elapsed().as_micros() as u64;
        summary
    }
}

/// Reads `path` and builds its certify request, or the outcome of a
/// file that cannot be read. Class pins the file does not declare are
/// dropped, so one policy can span heterogeneous programs; a file that
/// does not parse keeps them all, and its parse error surfaces in the
/// reply.
fn file_request(
    path: &Path,
    classes: &[(String, String)],
    default_class: Option<&str>,
    lattice: &str,
) -> Result<Request, FileOutcome> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| FileOutcome::failed(path.to_path_buf(), format!("unreadable ({e})")))?;
    let declared = match secflow_lang::parse(&source) {
        Ok(program) => classes
            .iter()
            .filter(|(name, _)| program.symbols.lookup(name).is_some())
            .cloned()
            .collect(),
        Err(_) => classes.to_vec(),
    };
    let mut req = Request::new(Op::Certify, source);
    req.classes = declared;
    req.default_class = default_class.map(str::to_string);
    req.lattice = lattice.to_string();
    Ok(req)
}

fn lint_request(source: String) -> Request {
    Request::new(Op::Lint, source)
}

/// Parses the certify (and optional lint) response lines into one
/// [`FileOutcome`] — shared by the local and remote batch paths.
fn file_outcome(path: PathBuf, certify_line: &str, lint_line: Option<&str>) -> FileOutcome {
    let v = Json::parse(certify_line).unwrap_or(Json::Null);
    let status = if v.get("ok").and_then(Json::as_bool) == Some(false) {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("error")
            .to_string()
    } else if v.get("certified").and_then(Json::as_bool) == Some(true) {
        "certified".to_string()
    } else {
        "REJECTED".to_string()
    };
    let lint = lint_line.and_then(|line| {
        let lv = Json::parse(line).unwrap_or(Json::Null);
        if lv.get("ok").and_then(Json::as_bool) == Some(true) {
            Some((
                lv.get("errors").and_then(Json::as_u64).unwrap_or(0),
                lv.get("warnings").and_then(Json::as_u64).unwrap_or(0),
                lv.get("infos").and_then(Json::as_u64).unwrap_or(0),
            ))
        } else {
            None
        }
    });
    FileOutcome {
        path,
        status,
        statements: v.get("statements").and_then(Json::as_u64).unwrap_or(0),
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        us: v.get("us").and_then(Json::as_u64).unwrap_or(0),
        lint,
    }
}

/// Renders the summary as an aligned text table.
pub fn render_summary(summary: &BatchSummary) -> String {
    let mut out = String::new();
    let width = summary
        .files
        .iter()
        .map(|f| f.path.display().to_string().len())
        .max()
        .unwrap_or(4)
        .max(4);
    out.push_str(&format!(
        "{:<width$}  {:>10}  {:>6}  {:>9}  {:>5}  {:>10}\n",
        "file", "status", "stmts", "time", "cache", "lint"
    ));
    for f in &summary.files {
        let lint = match f.lint {
            None => "-".to_string(),
            Some((0, 0, 0)) => "clean".to_string(),
            Some((e, w, i)) => {
                let mut parts = Vec::new();
                if e > 0 {
                    parts.push(format!("{e}E"));
                }
                if w > 0 {
                    parts.push(format!("{w}W"));
                }
                if i > 0 {
                    parts.push(format!("{i}I"));
                }
                parts.join(" ")
            }
        };
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>6}  {:>7}µs  {:>5}  {:>10}\n",
            f.path.display(),
            f.status,
            f.statements,
            f.us,
            if f.cached { "hit" } else { "-" },
            lint,
        ));
    }
    out.push_str(&format!(
        "\n{} file(s): {} certified, {} rejected, {} error(s); {} cache hit(s); {:.1} ms total\n",
        summary.files.len(),
        summary.certified,
        summary.rejected,
        summary.errored,
        summary.cache_hits,
        summary.wall_us as f64 / 1e3,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two identical files and one other: the second copy's certify is
    /// the batch's one cache hit, and its lint is a hit the summary must
    /// not count.
    #[test]
    fn cache_hits_count_certify_rows_not_lint_hits() {
        let dir = std::env::temp_dir().join(format!("secflow-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let same = "var h, l : integer; l := h";
        std::fs::write(dir.join("a.sf"), same).unwrap();
        std::fs::write(dir.join("b.sf"), same).unwrap();
        std::fs::write(dir.join("c.sf"), "var x : integer; x := 1").unwrap();
        let classes = [("h".to_string(), "high".to_string())];
        // One worker: the copies run in order, so the second finds both
        // of its entries cached rather than still in flight.
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let summary = run_batch(&dir, &classes, None, "two", cfg).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let cached_rows = summary.files.iter().filter(|f| f.cached).count();
        assert_eq!(summary.cache_hits, 1, "{}", render_summary(&summary));
        assert_eq!(summary.cache_hits, cached_rows);
        assert_eq!((summary.certified, summary.rejected), (1, 2));
    }
}
