//! Client-side driving of an in-process `microgradd`, the server's
//! `metrics` scrape, and timed probes of the result store.

use crate::stats::{median, us};
use micrograd_core::{FrameworkConfig, FrameworkOutput};
use micrograd_service::{
    decode_response, encode_line, platform_key, Client, ClientError, JobState, Response,
    ResponseBody, ResultStore, Server, ServerConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Server-side budget of one `watch`; a job that needs longer fails the
/// run instead of hanging it.
const WATCH_BUDGET_MS: u64 = 120_000;

/// Starts a server on `store` and returns it with the start-up time
/// (`Server::start`, which includes `ResultStore::open`).
///
/// # Panics
///
/// Panics if the server cannot start: the run has nothing to measure.
#[must_use]
pub fn start_server(store: &Path) -> (Server, Duration) {
    let start = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(store.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("in-process server starts");
    (server, start.elapsed())
}

/// Shuts a server down.
///
/// An idle reactor that consumes the shutdown wake-up before it enters its
/// drain then waits out the full drain timeout (5 s) with nothing to
/// drain.  A second wake-up, sent once the first has had time to land,
/// ends that wait; it only shortens teardown, which nothing times.
pub fn stop_server(server: Server) {
    server.request_shutdown();
    std::thread::sleep(Duration::from_millis(2));
    server.shutdown();
}

/// One job as its client saw it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// `submit` sent to report decoded.
    pub latency: Duration,
    /// Per-op client times: submit, watch, fetch.
    pub ops: [Duration; 3],
    /// The report, or the client-visible error.
    pub output: Result<FrameworkOutput, String>,
}

fn run_job(client: &mut Client, config: &FrameworkConfig) -> JobOutcome {
    let start = Instant::now();
    let mut ops = [Duration::ZERO; 3];
    let output = (|| -> Result<FrameworkOutput, ClientError> {
        let receipt = client.submit(config, 0)?;
        ops[0] = start.elapsed();
        let state = client.watch(receipt.job, Some(WATCH_BUDGET_MS))?;
        ops[1] = start.elapsed() - ops[0];
        if state != JobState::Done {
            return Err(ClientError::Server(format!(
                "job {} ended {state}",
                receipt.job
            )));
        }
        let output = client.fetch(receipt.job)?;
        ops[2] = start.elapsed() - ops[0] - ops[1];
        Ok(output)
    })();
    JobOutcome {
        latency: start.elapsed(),
        ops,
        output: output.map_err(|e| e.to_string()),
    }
}

/// Runs `configs` as a closed loop of `submit` → `watch` → `fetch`:
/// `clients` connections, each over its own contiguous share of the
/// configurations.  Outcomes come back in configuration order.
#[must_use]
pub fn run_jobs(server: &Server, configs: &[FrameworkConfig], clients: usize) -> Vec<JobOutcome> {
    let addr = server.local_addr();
    let share = configs.len().div_ceil(clients.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .chunks(share)
            .map(|chunk| {
                scope.spawn(move || match Client::connect(addr) {
                    Ok(mut client) => chunk.iter().map(|c| run_job(&mut client, c)).collect(),
                    Err(e) => chunk
                        .iter()
                        .map(|_| JobOutcome {
                            latency: Duration::ZERO,
                            ops: [Duration::ZERO; 3],
                            output: Err(format!("connect: {e}")),
                        })
                        .collect::<Vec<_>>(),
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

/// The parts of a `metrics` scrape the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    text: String,
}

impl Scrape {
    /// Scrapes `server` over a fresh connection.
    ///
    /// # Errors
    ///
    /// Returns the client error if the scrape fails.
    pub fn take(server: &Server) -> Result<Scrape, ClientError> {
        let mut client = Client::connect(server.local_addr())?;
        Ok(Scrape {
            text: client.metrics()?,
        })
    }

    /// The value of an unlabelled counter or gauge (0 when absent).
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        self.text
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    }

    /// Sample count of a histogram.
    #[must_use]
    pub fn count(&self, histogram: &str) -> u64 {
        self.value(&format!("{histogram}_count"))
    }

    /// A histogram's typical value: the median, interpolated linearly
    /// inside the bucket that holds it, once the histogram holds
    /// [`MEDIAN_MIN_SAMPLES`]; below that the bucket edges would quantize
    /// it, so the exact mean (`_sum / _count`).  NaN when empty.
    #[must_use]
    pub fn typical(&self, histogram: &str) -> f64 {
        let count = self.count(histogram);
        if count < MEDIAN_MIN_SAMPLES {
            return self.value(&format!("{histogram}_sum")) as f64 / count as f64;
        }
        self.p50(histogram)
    }

    /// The median of a histogram, interpolated linearly inside the bucket
    /// that holds it (NaN when the histogram is empty).
    #[must_use]
    pub fn p50(&self, histogram: &str) -> f64 {
        let prefix = format!("{histogram}_bucket{{le=\"");
        let buckets: Vec<(f64, f64)> = self
            .text
            .lines()
            .filter_map(|line| {
                let rest = line.strip_prefix(&prefix)?;
                let (edge, count) = rest.split_once("\"} ")?;
                let edge = if edge == "+Inf" {
                    f64::INFINITY
                } else {
                    edge.parse().ok()?
                };
                Some((edge, count.parse().ok()?))
            })
            .collect();
        interpolated_p50(&buckets)
    }

    /// The server-side correlation block printed beside client numbers.
    #[must_use]
    pub fn summary(&self) -> String {
        let hist = |name: &str| {
            format!(
                "{name} p50 {:.1} mean {:.1} (n={})",
                self.p50(name),
                self.value(&format!("{name}_sum")) as f64 / self.count(name).max(1) as f64,
                self.count(name)
            )
        };
        format!(
            "server: {} | {} | {} | {}\nserver: submitted {} store_hits {} executions {} failed {} rejected {} timed_out {} cache hits {} misses {}",
            hist("micrograd_request_duration_us"),
            hist("micrograd_job_queue_wait_us"),
            hist("micrograd_job_execution_us"),
            hist("micrograd_job_total_us"),
            self.value("micrograd_jobs_submitted_total"),
            self.value("micrograd_store_hits_total"),
            self.value("micrograd_executions_total"),
            self.failures()[0],
            self.failures()[1],
            self.failures()[2],
            self.value("micrograd_cache_hits"),
            self.value("micrograd_cache_misses"),
        )
    }

    /// `jobs_failed`, `jobs_rejected`, `jobs_timed_out`.
    #[must_use]
    pub fn failures(&self) -> [u64; 3] {
        [
            self.value("micrograd_jobs_failed_total"),
            self.value("micrograd_jobs_rejected_total"),
            self.value("micrograd_jobs_timed_out_total"),
        ]
    }
}

/// Median from cumulative `(upper edge, count)` buckets, interpolated
/// between the holding bucket's lower and upper edges.
fn interpolated_p50(buckets: &[(f64, f64)]) -> f64 {
    let Some(&(_, total)) = buckets.last() else {
        return f64::NAN;
    };
    if total <= 0.0 {
        return f64::NAN;
    }
    let rank = total / 2.0;
    let (mut lower, mut below) = (0.0, 0.0);
    for &(edge, cumulative) in buckets {
        if cumulative >= rank && cumulative > below {
            if edge.is_infinite() {
                return lower;
            }
            return lower + (edge - lower) * (rank - below) / (cumulative - below);
        }
        lower = edge;
        below = cumulative;
    }
    lower
}

/// Samples a scraped histogram needs before [`Scrape::typical`] reports
/// its median rather than its mean.
pub const MEDIAN_MIN_SAMPLES: u64 = 100;

/// Timed probes of one store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreProbe {
    /// `ResultStore::open`, milliseconds.
    pub open_ms: f64,
    /// Files the open scans.
    pub files: usize,
    /// `load_report` per stored job, median microseconds.
    pub load_report_us: f64,
    /// `load_cache` of the largest cache dump, milliseconds.
    pub load_cache_ms: f64,
    /// `save_cache` of the same dump, milliseconds.
    pub save_cache_ms: f64,
    /// Size of that dump on disk.
    pub cache_dump_bytes: u64,
    /// `encode_line` + `decode_response` of a fetch response, median
    /// microseconds.
    pub codec_us: f64,
    /// Encoded fetch-response size, median bytes.
    pub report_bytes: f64,
    /// Reports that did not load or did not survive the codec unchanged.
    pub mismatches: usize,
}

/// Probes the store at `dir`, whose reports belong to `configs` (the job
/// set is capped at 256 probes to keep the traced run short).
///
/// # Panics
///
/// Panics if the store cannot be opened.
#[must_use]
pub fn probe_store(dir: &Path, configs: &[FrameworkConfig]) -> StoreProbe {
    let files = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .count()
        })
        .unwrap_or(0);
    let start = Instant::now();
    let store = ResultStore::open(dir).expect("store opens");
    let open_ms = start.elapsed().as_secs_f64() * 1e3;

    let step = configs.len().div_ceil(256).max(1);
    let mut load_us = Vec::new();
    let mut codec_us = Vec::new();
    let mut bytes = Vec::new();
    let mut mismatches = 0;
    for config in configs.iter().step_by(step) {
        let start = Instant::now();
        let loaded = store.load_report(config);
        load_us.push(us(start.elapsed()));
        let Some(output) = loaded else {
            mismatches += 1;
            continue;
        };
        let response = Response::new(ResponseBody::Report { job: 1, output });
        let start = Instant::now();
        let decoded = encode_line(&response).and_then(|line| {
            bytes.push(line.len() as f64);
            decode_response(&line)
        });
        codec_us.push(us(start.elapsed()));
        if decoded.as_ref() != Ok(&response) {
            mismatches += 1;
        }
    }

    // The largest dump is the one the most jobs have grown.
    let mut keys: Vec<String> = configs.iter().map(platform_key).collect();
    keys.sort();
    keys.dedup();
    let (mut load_cache_ms, mut save_cache_ms, mut largest) = (f64::NAN, f64::NAN, 0usize);
    for key in &keys {
        let start = Instant::now();
        let entries = store.load_cache(key);
        let load = start.elapsed();
        if entries.len() >= largest {
            largest = entries.len();
            let start = Instant::now();
            if store.save_cache(key, entries).is_err() {
                mismatches += 1;
            }
            save_cache_ms = start.elapsed().as_secs_f64() * 1e3;
            load_cache_ms = load.as_secs_f64() * 1e3;
        }
    }
    let cache_dump_bytes = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("cache-"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);

    StoreProbe {
        open_ms,
        files,
        load_report_us: median(&load_us),
        load_cache_ms,
        save_cache_ms,
        cache_dump_bytes,
        codec_us: median(&codec_us),
        report_bytes: median(&bytes),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_interpolates_inside_the_holding_bucket() {
        // 10 samples: 4 in (0, 10], 6 in (10, 20]; rank 5 lies 1/6 into
        // the second bucket.
        let buckets = [(10.0, 4.0), (20.0, 10.0), (f64::INFINITY, 10.0)];
        let p50 = interpolated_p50(&buckets);
        assert!((p50 - (10.0 + 10.0 / 6.0)).abs() < 1e-9, "{p50}");
        assert!(interpolated_p50(&[]).is_nan());
        assert!(interpolated_p50(&[(5.0, 0.0)]).is_nan());
    }

    #[test]
    fn scrape_reads_counters_and_histograms() {
        let scrape = Scrape {
            text: "micrograd_jobs_failed_total 2\n\
                   micrograd_x_us_bucket{le=\"4\"} 1\n\
                   micrograd_x_us_bucket{le=\"8\"} 3\n\
                   micrograd_x_us_bucket{le=\"+Inf\"} 3\n\
                   micrograd_x_us_count 3\n"
                .to_owned(),
        };
        assert_eq!(scrape.failures(), [2, 0, 0]);
        assert_eq!(scrape.count("micrograd_x_us"), 3);
        let p50 = scrape.p50("micrograd_x_us");
        assert!(p50 > 4.0 && p50 < 8.0, "{p50}");
        // Three samples are too few for a median: the mean (sum 15).
        let scrape = Scrape {
            text: format!("{}micrograd_x_us_sum 15\n", scrape.text),
        };
        assert_eq!(scrape.typical("micrograd_x_us"), 5.0);
    }
}
