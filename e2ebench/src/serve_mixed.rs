//! `serve-mixed`: a closed loop of clients draining a seeded job list
//! through the `swim serve` engine over loopback TCP.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::{parse_json, Value};
use swim_report::schema::ResultsDoc;
use swim_serve::http::{read_request, HttpError};
use swim_serve::{Response, Server, ServerConfig};

use crate::checks::{digest, parse_checked, result_bytes};
use crate::lenet_grid::mc_runs;
use crate::sys::{cpu_seconds, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{serve_job_list, Job, JobList, SERVE_BUDGET};
use crate::{decompose, lanes, pinned_tuning, Report};

/// Fewest set-up + drain cycles, each on a fresh server; more run while
/// `--seconds` allows.
const MIN_CYCLES: usize = 3;
/// Status poll interval of a waiting client.
const POLL: Duration = Duration::from_millis(20);
/// A job still unfinished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// One HTTP/1.1 exchange; the server closes every connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("{method} {path}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

fn json_str(body: &str, key: &str) -> Option<String> {
    parse_json(body).ok()?.get(key)?.as_str().map(str::to_string)
}

/// `/metrics` as name → value.
fn metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
        .collect())
}

/// An in-process `swim serve` engine on an ephemeral loopback port.
///
/// The transport mirrors `swim_serve::serve_forever` (one thread per
/// connection, routed by `Server::handle`) but can be stopped, so each
/// cycle's server, its worker pool and its prep cache are gone before
/// the next starts, and every thread is joined.
struct LocalServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
}

impl LocalServer {
    fn start() -> Result<LocalServer, String> {
        let tuning = pinned_tuning();
        let engine = Arc::new(ServiceEngine::new(tuning.gemm_threads, tuning.gemm_block_cols));
        let config = ServerConfig { workers: lanes(), ..ServerConfig::default() };
        let max_body = config.max_body_bytes;
        let server = Server::new(engine, config);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("e2ebench-accept".into())
            .spawn(move || {
                std::thread::scope(|s| {
                    for stream in listener.incoming() {
                        if flag.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let server = &server;
                        s.spawn(move || answer(server, stream, max_body));
                    }
                });
            })
            .map_err(|e| format!("spawning the accept loop: {e}"))?;
        Ok(LocalServer { addr, stop, accept })
    }

    /// Stops accepting, waits for open connections, and drops the server
    /// (which joins its worker pool).
    fn shutdown(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        self.accept.join().map_err(|_| "the accept loop panicked".to_string())
    }
}

/// Reads one request, routes it, writes one response, closes.
fn answer(server: &Arc<Server>, mut stream: TcpStream, max_body: usize) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = &stream;
    let response = match read_request(&mut reader, max_body) {
        Ok(request) => server.handle(&request),
        Err(HttpError::Io(_)) => return,
        Err(e @ HttpError::BodyTooLarge { .. }) => Response::text(413, format!("{e}\n")),
        Err(e) => Response::text(400, format!("{e}\n")),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

/// What a client saw of one job.
struct JobRecord {
    spec: usize,
    submitted: Instant,
    accepted: Instant,
    running: Option<Instant>,
    finished: Instant,
    status: u16,
    state: String,
    doc: Option<String>,
}

/// Submits `spec` and waits for a terminal state, fetching the result
/// of a finished job.
fn run_job(addr: SocketAddr, spec_index: usize, spec: &str) -> Result<JobRecord, String> {
    let submitted = Instant::now();
    let (status, body) = http(addr, "POST", "/jobs", spec)?;
    let accepted = Instant::now();
    let mut record = JobRecord {
        spec: spec_index,
        submitted,
        accepted,
        running: None,
        finished: accepted,
        status,
        state: "refused".into(),
        doc: None,
    };
    if status != 201 {
        return Ok(record);
    }
    let id = json_str(&body, "id").ok_or("POST /jobs answered without an id")?;
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{id}"), "")?;
        let state = json_str(&body, "state").ok_or("job status without a state")?;
        let now = Instant::now();
        if state != "queued" && record.running.is_none() {
            record.running = Some(now);
        }
        if matches!(state.as_str(), "done" | "failed" | "cancelled")
            || now - submitted > JOB_TIMEOUT
        {
            record.finished = now;
            record.state = state;
            break;
        }
        std::thread::sleep(POLL);
    }
    if record.state == "done" {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}/result"), "")?;
        if status == 200 {
            record.doc = Some(body);
        }
    }
    Ok(record)
}

/// Starts a server, primes every hot prefix and waits for `/healthz`.
/// Returns the server, the set-up time and the primers' records.
fn setup_once(list: &JobList) -> Result<(LocalServer, f64, Vec<JobRecord>), String> {
    let start = Instant::now();
    let server = LocalServer::start()?;
    let addr = server.addr;
    let primed: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = list
            .primers
            .iter()
            .map(|&p| s.spawn(move || run_job(addr, p, &list.specs[p])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("primer thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let (status, _) = http(addr, "GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    Ok((server, start.elapsed().as_secs_f64(), primed))
}

/// Drains the job list: one thread per client, each submitting its jobs
/// in order and waiting for each before the next.
fn drain(addr: SocketAddr, list: &JobList) -> Result<Vec<JobRecord>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = list
            .clients
            .iter()
            .map(|jobs| {
                s.spawn(move || {
                    jobs.iter()
                        .map(|job: &Job| run_job(addr, job.spec, &list.specs[job.spec]))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked")?);
        }
        Ok(all)
    })
}

/// Runs `serve-mixed`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let clients = lanes();
    let list = serve_job_list(seed, clients, lanes(), &SERVE_BUDGET);
    let specs: Vec<ExperimentSpec> = list
        .specs
        .iter()
        .map(|t| ExperimentSpec::parse_str(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    report.note("clients", Value::Int(clients as i64));
    report.note("pool_workers", Value::Int(lanes() as i64));
    report.note("jobs_per_drain", Value::Int(list.len() as i64));
    report.note("distinct_specs", Value::Int(list.specs.len() as i64));
    swim_tensor::tune::install(&pinned_tuning());
    let mut tracer = Tracer::default();

    // Each cycle starts a fresh server (empty prep cache), primes it and
    // drains the whole list; the run reports medians over the cycles.
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut primed: Vec<JobRecord> = Vec::new();
    let mut drained: Vec<JobRecord> = Vec::new();
    // Counter deltas summed over the drains.
    let mut deltas: BTreeMap<&str, f64> = BTreeMap::new();
    let measuring = Instant::now();
    while walls.len() < MIN_CYCLES || measuring.elapsed().as_secs_f64() < seconds {
        let (server, setup_seconds, records) = setup_once(&list)?;
        let addr = server.addr;
        setup.push(setup_seconds);
        primed.extend(records);
        let before = metrics(addr)?;
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        let jobs = drain(addr, &list)?;
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(cpu_seconds()? - cpu0);
        let after = metrics(addr)?;
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let (hits, misses, rejected) = (
            delta("swim_prep_cache_hits_total"),
            delta("swim_prep_cache_misses_total"),
            delta("swim_jobs_rejected_total"),
        );
        report.check(hits == list.expected_hits as f64, || {
            format!("cache hits {hits}, expected {}", list.expected_hits)
        });
        report.check(misses == list.expected_misses as f64, || {
            format!("cache misses {misses}, expected {}", list.expected_misses)
        });
        report.check(rejected == 0.0, || format!("{rejected} job(s) refused with 429"));
        for key in [
            "swim_prep_cache_hits_total",
            "swim_prep_cache_misses_total",
            "swim_jobs_rejected_total",
            "swim_stage_prep_seconds_total",
            "swim_stage_sweep_seconds_total",
            "swim_stage_assemble_seconds_total",
        ] {
            *deltas.entry(key).or_default() += delta(key);
        }
        drained.extend(jobs);
        server.shutdown()?;
    }
    report.note("drains", Value::Int(walls.len() as i64));

    // Every job must finish, and every served document must equal a
    // run_spec of the same spec.
    let served: Vec<&JobRecord> = primed.iter().chain(&drained).collect();
    let done = served.iter().filter(|r| r.state == "done").count() as u64;
    report.ops(served.len() as u64, served.len() as u64 - done);
    for r in served.iter().filter(|r| r.state != "done") {
        report
            .failures
            .push(format!("job of spec {} ended {} (HTTP {})", r.spec, r.state, r.status));
    }
    let mut needed: Vec<usize> =
        served.iter().filter(|r| r.doc.is_some()).map(|r| r.spec).collect();
    needed.sort_unstable();
    needed.dedup();
    let reference = references(&specs, &needed)?;
    for (index, local) in &reference {
        report.ops(mc_runs(&specs[*index]), local.faults.len() as u64);
    }
    let expected: BTreeMap<usize, String> =
        reference.iter().map(|(i, d)| (*i, result_bytes(d))).collect();
    for r in served {
        let Some(json) = &r.doc else { continue };
        let what = format!("served document of spec {}", r.spec);
        let Some(doc) = parse_checked(json, &what, report) else { continue };
        report.check(result_bytes(&doc) == expected[&r.spec], || {
            format!("{what}: differs from run_spec of the same spec")
        });
    }
    let digests: Vec<Value> = expected.values().map(|bytes| Value::Str(digest(bytes))).collect();
    report.note("result_digests", Value::Array(digests));

    let latencies: Vec<f64> =
        drained.iter().map(|r| (r.finished - r.submitted).as_secs_f64()).collect();
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("cpu_s", median(&cpus), "s");
    report.metric("job_p50_s", percentile(&latencies, 0.5), "s");
    report.metric("job_p90_s", percentile(&latencies, 0.9), "s");

    if trace {
        for (i, r) in drained.iter().enumerate() {
            let job = tracer.record("serve.job", i as u64, None, r.submitted, r.finished);
            tracer.record("serve.submit", i as u64, Some(job), r.submitted, r.accepted);
            if let Some(running) = r.running {
                tracer.record("serve.queue_wait", i as u64, Some(job), r.accepted, running);
            }
        }
        report.metric("serve.submit_s", median(&tracer.durations_of("serve.submit")), "s");
        let waits: Vec<f64> = drained
            .iter()
            .filter_map(|r| r.running.map(|t| (t - r.submitted).as_secs_f64()))
            .collect();
        report.metric("serve.queue_wait_s", median(&waits), "s");
        report.metric(
            "serve.prep_s",
            deltas["swim_stage_prep_seconds_total"] / walls.len() as f64,
            "s",
        );
        report.metric(
            "serve.sweep_s",
            deltas["swim_stage_sweep_seconds_total"] / walls.len() as f64,
            "s",
        );
        report.metric(
            "serve.assemble_s",
            deltas["swim_stage_assemble_seconds_total"] / walls.len() as f64,
            "s",
        );
        report.metric(
            "serve.cache_hits",
            deltas["swim_prep_cache_hits_total"] / walls.len() as f64,
            "count",
        );
        report.metric(
            "serve.cache_misses",
            deltas["swim_prep_cache_misses_total"] / walls.len() as f64,
            "count",
        );
        report.metric(
            "serve.rejected",
            deltas["swim_jobs_rejected_total"] / walls.len() as f64,
            "count",
        );
        traced(&list, &specs, &expected, &mut tracer, report)?;
        report.spans = Some(tracer.to_value());
    }
    Ok(())
}

/// `run_spec` of each spec in `needed`, one after another (the Monte
/// Carlo level inside each call already uses [`lanes`] threads).
fn references(
    specs: &[ExperimentSpec],
    needed: &[usize],
) -> Result<BTreeMap<usize, ResultsDoc>, String> {
    let opts = RunOptions { tuning: pinned_tuning(), ..Default::default() };
    needed.iter().map(|&index| Ok((index, run_spec(&specs[index], &opts)?))).collect()
}

/// Decomposes one hot spec and one cold spec into crate calls, checks
/// each against its `run_spec` reference, and times both untraced.
fn traced(
    list: &JobList,
    specs: &[ExperimentSpec],
    expected: &BTreeMap<usize, String>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let hot = list.primers[0];
    let cold = list.specs.len() - 1;
    let opts = RunOptions { tuning: pinned_tuning(), ..Default::default() };
    let mut untraced = 0.0;
    let mut parts = Vec::new();
    for (group, index) in [hot, cold].into_iter().enumerate() {
        let start = Instant::now();
        let mut doc = run_spec(&specs[index], &opts)?;
        untraced += start.elapsed().as_secs_f64();
        let d = decompose::run(&specs[index], group as u64, tracer)?;
        doc.sweeps = d.sweeps.clone();
        report.check(expected.get(&index) == Some(&result_bytes(&doc)), || {
            format!("traced decomposition of spec {index} differs from run_spec's")
        });
        parts.push((d, doc));
    }
    let traced_wall = tracer.total_of("bench.run_spec");
    let program_self = tracer.program_self_time("bench.run_spec");
    let (mut d, doc) = parts.swap_remove(0);
    for (other, _) in &parts {
        d.evals += other.evals;
        d.train_steps += other.train_steps;
        d.train_samples += other.train_samples;
    }
    decompose::layer_metrics(&d, tracer, report);
    report.metric("bench.traced_wall_s", traced_wall, "s");
    report.metric("bench.overhead_s", untraced - program_self, "s");
    report.metric("bench.tracing_overhead_s", traced_wall - untraced, "s");
    decompose::probes(&specs[hot], &d, tracer, report);
    decompose::report_write(&doc, "serve-mixed", tracer, report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ServeBudget;

    /// Cache hits, misses and refusals repeat exactly across drains of
    /// one job list, and match what the list implies.
    #[test]
    fn cache_counts_repeat_exactly() {
        swim_tensor::tune::install(&pinned_tuning());
        let budget = ServeBudget { training: (60, 1, 0.05), hot_repeats: 1, cold_prefixes: 2 };
        let list = serve_job_list(5, 2, 2, &budget);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let (server, _, primed) = setup_once(&list).expect("set-up");
            let addr = server.addr;
            assert!(primed.iter().all(|r| r.state == "done"));
            let before = metrics(addr).expect("metrics");
            let drained = drain(addr, &list).expect("drain");
            let after = metrics(addr).expect("metrics");
            server.shutdown().expect("shutdown");
            assert!(drained.iter().all(|r| r.state == "done" && r.doc.is_some()));
            let delta = |k: &str| after[k] - before[k];
            seen.push((
                delta("swim_prep_cache_hits_total"),
                delta("swim_prep_cache_misses_total"),
                delta("swim_jobs_rejected_total"),
            ));
        }
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[0], (list.expected_hits as f64, list.expected_misses as f64, 0.0));
    }
}
