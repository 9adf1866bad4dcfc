//! Shared measurement helpers for the `secflow-bench` binaries: one
//! median timer, a batched per-call timer built on it for
//! sub-microsecond costs, and one writer for the `BENCH_*.json` row
//! schema.

use std::hint::black_box;
use std::time::{Duration, Instant};

use secflow_cert::Json;

/// Cores the host exposes. Every recorded row carries it: a speedup or
/// a latency under load means little without it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time of `f` over `reps` runs, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Shortest batch [`ns_per_call`] times: long enough that timer
/// resolution and the clock read stay out of sub-microsecond costs.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Batches [`ns_per_call`] takes the median over.
const BATCHES: usize = 9;

/// Median cost of one call of `f`, in nanoseconds. The batch size
/// doubles until one batch of calls takes at least 1 ms; the result is
/// the median over 9 such batches, divided by the batch size.
pub fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed() >= MIN_BATCH {
            break;
        }
        batch *= 2;
    }
    let secs = median_secs(BATCHES, || {
        for _ in 0..batch {
            black_box(f());
        }
    });
    secs * 1e9 / batch as f64
}

/// One recorded measurement: `metric` of `workload` at sweep point
/// `size` (1 for `explore_scaling`, clients for `serve_bench`),
/// measured in `layer`.
pub struct Row {
    /// The layer measured, named as perfbench names its layers.
    pub layer: &'static str,
    /// The program family or serving path, with its parameters.
    pub workload: String,
    /// The sweep point.
    pub size: usize,
    /// What was measured.
    pub metric: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit of `value`.
    pub unit: &'static str,
}

impl Row {
    fn to_json(&self, host_cores: usize) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        Json::Obj(vec![
            ("layer".to_string(), text(self.layer)),
            ("workload".to_string(), text(&self.workload)),
            ("size".to_string(), Json::Num(self.size as f64)),
            ("metric".to_string(), text(self.metric)),
            ("value".to_string(), Json::Num(four_digits(self.value))),
            ("unit".to_string(), text(self.unit)),
            ("host_cores".to_string(), Json::Num(host_cores as f64)),
        ])
    }
}

/// `v` rounded to four significant digits; integers (counts) stay
/// exact.
fn four_digits(v: f64) -> f64 {
    if v.fract() == 0.0 || !v.is_finite() {
        return v;
    }
    let shift = 3 - v.abs().log10().floor() as i32;
    if shift >= 0 {
        let scale = 10f64.powi(shift);
        (v * scale).round() / scale
    } else {
        let scale = 10f64.powi(-shift);
        (v / scale).round() * scale
    }
}

/// Writes `rows` to `path` as a JSON array, one row object per line,
/// each stamped with [`host_cores`].
pub fn write_rows(path: &str, rows: &[Row]) -> std::io::Result<()> {
    let cores = host_cores();
    let lines: Vec<String> = rows.iter().map(|r| r.to_json(cores).to_string()).collect();
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_the_workspace_parser() {
        let path = std::env::temp_dir().join(format!("secflow-rows-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let rows = [
            Row {
                layer: "runtime",
                workload: "indep(4, 4)".to_string(),
                size: 2,
                metric: "persistent.states",
                value: 291_089.0,
                unit: "count",
            },
            Row {
                layer: "frontend",
                workload: "poll".to_string(),
                size: 64,
                metric: "throughput_rps",
                value: 31_463.27,
                unit: "req/s",
            },
        ];
        write_rows(path, &rows).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        std::fs::remove_file(path).unwrap();
        let parsed = parsed.as_arr().unwrap();
        assert_eq!(parsed.len(), 2);
        let keys: Vec<&str> = parsed[0]
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys.join(","),
            "layer,workload,size,metric,value,unit,host_cores"
        );
        // Counts stay exact; the rest keeps four significant digits.
        assert_eq!(parsed[0].get("value").and_then(Json::as_u64), Some(291_089));
        assert_eq!(parsed[1].get("value"), Some(&Json::Num(31_460.0)));
        assert_eq!(
            parsed[1].get("host_cores").and_then(Json::as_u64),
            Some(host_cores() as u64)
        );
    }
}
