//! Quickstart: clone a workload described directly by its metric values.
//!
//! This is the smallest end-to-end MicroGrad run: the cloning target is
//! given as a handful of metric values (the "numerical values of the
//! application's metrics of interest" input mode of the paper), and the
//! gradient-descent tuner evolves a synthetic test case to match them.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use micrograd::core::{
    CoreKind, FrameworkConfig, FrameworkOutput, KnobSpaceKind, MetricKind, Metrics, MicroGrad,
    MicroGradError, TunerKind, UseCaseConfig,
};
use micrograd::service::{Client, Server, ServerConfig};

fn main() -> Result<(), MicroGradError> {
    // Describe the workload to clone by its metrics of interest.
    let target = Metrics::new()
        .with(MetricKind::IntegerFraction, 0.45)
        .with(MetricKind::LoadFraction, 0.25)
        .with(MetricKind::StoreFraction, 0.12)
        .with(MetricKind::BranchFraction, 0.15)
        .with(MetricKind::BranchMispredictRate, 0.05)
        .with(MetricKind::L1dHitRate, 0.93)
        .with(MetricKind::Ipc, 1.2);

    let config = FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::Full,
        use_case: UseCaseConfig::CloneMetrics {
            name: "quickstart-target".to_owned(),
            target,
            accuracy_target: 0.97,
        },
        max_epochs: 12,
        dynamic_len: 20_000,
        reference_len: 20_000,
        seed: 42,
        // Evaluate each epoch's batch on all available cores; results are
        // bit-identical to a sequential run.
        parallelism: Some(0),
    };

    println!("MicroGrad quickstart — cloning a metric-described workload");
    println!("configuration:\n{}", config.to_json());

    // Own the platform (instead of plain `run()`) so the memoization-cache
    // counters can be inspected after the run.
    let framework = MicroGrad::new(config);
    let platform = framework.platform();
    let output = framework.run_on(&platform)?;
    let FrameworkOutput::Clone(report) = output else {
        unreachable!("cloning use case returns a clone report");
    };

    println!();
    println!(
        "clone of `{}` after {} epochs ({} evaluations):",
        report.workload, report.epochs_used, report.evaluations
    );
    println!(
        "{:<18} {:>10} {:>10} {:>8}",
        "metric", "target", "clone", "ratio"
    );
    for (kind, ratio) in &report.ratios {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>8.3}",
            kind.label(),
            report.target.value_or_zero(*kind),
            report.clone_metrics.value_or_zero(*kind),
            ratio
        );
    }
    println!();
    println!(
        "mean accuracy: {:.2}% (converged: {})",
        report.mean_accuracy * 100.0,
        report.converged
    );
    let cache = platform.cache_stats();
    println!(
        "memo cache: {} hits, {} misses, {} inserts, {} entries ({:.1}% hit rate)",
        cache.hits,
        cache.misses,
        cache.inserts,
        cache.entries,
        cache.hit_rate() * 100.0
    );

    // The same framework also runs as a daemon built on a readiness
    // event loop: one reactor thread multiplexes every socket, so idle
    // connections cost file descriptors, not threads. Boot an
    // in-process server, park a crowd of idle sessions on it, exercise
    // a couple of requests, and render the daemon's metrics registry —
    // scheduler counters, request series, latency histograms and the
    // event loop's series, one table for every layer.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("in-process server starts");
    let idle: Vec<std::net::TcpStream> = (0..64)
        .map(|_| std::net::TcpStream::connect(server.local_addr()).expect("idle connect"))
        .collect();
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    client.metrics().expect("metrics answers");
    client.list().expect("list answers");

    let metrics = server.scheduler().metrics();
    println!();
    println!(
        "unified metrics registry ({} idle sessions parked on the daemon):",
        idle.len()
    );
    println!("{:<44} {:>12}  p50/p95/p99 (us)", "series", "value");
    for sample in metrics.samples() {
        match sample.quantiles {
            Some((p50, p95, p99)) => {
                println!(
                    "{:<44} {:>12}  {p50}/{p95}/{p99}",
                    sample.name, sample.value
                );
            }
            None if sample.value != 0 => println!("{:<44} {:>12}", sample.name, sample.value),
            None => {}
        }
    }
    drop(client);
    drop(idle);
    server.shutdown();
    Ok(())
}
