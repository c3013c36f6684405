//! The `push-net` workload: framed pushes over one loopback connection to
//! an in-process `NetServer` + `TenantRouter`.
//!
//! Each push carries a two-trip windowed batch. With minCard 5 no flow
//! survives, so clustering is nearly free and the frame codec, spool
//! hand-off, journal, checkpoint and tenant path dominate: a clustering
//! change must show no change here.
//!
//! The load is an open loop at a fixed rate, pipelined on one
//! connection: a writer thread sends each push at its due time and a
//! reader thread timestamps the replies, so latency counts from the due
//! time and a stall is charged to every push queued behind it.

use crate::inputs::{self, Scale};
use crate::report::RunResult;
use crate::stream::set_fs_counters;
use crate::trace::Tracer;
use crate::tracedfs::TracedFs;
use crate::{dir_bytes, peak_rss_mb, stats, timed, Opts};
use neat_durability::{Fs, StdFs};
use neat_rnet::netgen::MapPreset;
use neat_rnet::RoadNetwork;
use neat_runctl::{CancelToken, Clock, SystemClock};
use neat_svc::frame::{FrameReader, Poll, DEFAULT_MAX_FRAME, HEADER_LEN};
use neat_svc::{NetConfig, NetServer, Reply, Request, SvcConfig, TenantConfig, TenantRouter};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one tenant every push goes to.
const TENANT: &str = "sj";

/// Trips per pushed batch.
const TRIPS_PER_PUSH: usize = 2;

/// Trajectory-seconds between consecutive pushes' departures.
const PUSH_STRIDE_S: f64 = 4.0;

/// Retention window of the tenant, trajectory-seconds.
const WINDOW_S: f64 = 60.0;

/// Open-loop send rate at full scale, pushes per second. A push takes
/// about 3 ms on the 2-core VM's disk, so this keeps the server under
/// half busy: its tail then reflects the push path rather than a queue
/// that one stall can build.
const RATE_PER_S: f64 = 125.0;

/// The longest a push may wait for its reply before it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Open-loop segments of the measured run; set-up is sampled between
/// them, once every reply of the segment before is in.
const SEGMENTS: usize = 6;

/// Send rate and push count at one scale.
fn shape(opts: &Opts) -> (f64, usize) {
    match opts.scale {
        Scale::Full => (RATE_PER_S, (RATE_PER_S * opts.seconds).round() as usize),
        Scale::Smoke => (50.0, 30),
    }
}

fn roots(dir: &Path, scale: Scale) -> TenantConfig {
    let mut svc = SvcConfig::new(dir.join("spool"), dir.join("state"), dir.join("quarantine"));
    svc.neat = inputs::neat_config(scale, 2);
    svc.window = Some(WINDOW_S);
    TenantConfig::new(svc)
}

fn read_net(file: &Path) -> Result<RoadNetwork, String> {
    let text = std::fs::read(file).map_err(|e| format!("read network: {e}"))?;
    neat_rnet::io::read_network(std::io::Cursor::new(text)).map_err(|e| format!("parse: {e}"))
}

/// One pushed batch: its id and serialized payload.
struct Push {
    id: String,
    payload: Vec<u8>,
}

impl Push {
    fn request(&self) -> Request {
        Request::Push {
            tenant: TENANT.to_string(),
            batch_id: self.id.clone(),
            payload: self.payload.clone(),
        }
    }
}

/// Runs the workload; see the module docs.
pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::new("push-net", opts.seed, opts.trace);
    if let Err(e) = run_inner(opts, &mut res) {
        res.check("workload completed", false, e);
    }
    res
}

fn run_inner(opts: &Opts, res: &mut RunResult) -> Result<(), String> {
    let (rate, count) = shape(opts);
    let file = opts.work.join("SJ.net");
    let pushes: Vec<Push> = {
        let net = inputs::network(MapPreset::SanJose, opts.scale);
        let pool = inputs::population(MapPreset::SanJose, &net, opts.scale);
        inputs::write_network_file(&net, &file)?;
        inputs::batch_stream(&pool, count, TRIPS_PER_PUSH, PUSH_STRIDE_S, opts.seed)
            .iter()
            .map(|b| Push {
                id: format!("p-{}", b.name()),
                payload: inputs::encode_batch(b),
            })
            .collect()
    };
    let frames: Vec<Vec<u8>> = pushes.iter().map(|p| p.request().encode()).collect();
    res.note("rate_per_s", rate);
    res.note("pushes", count);

    let net = read_net(&file)?;
    if opts.trace {
        return traced(opts, rate, &net, &pushes, &frames, res);
    }

    // The program's set-up: read the network, open the tenant on an empty
    // state directory (its first status query opens its service), bind
    // the listener and build the server.
    let setup_root = opts.work.join("setup");
    let mut opened = 0;
    let mut set_up = || -> Result<RoadNetwork, String> {
        opened += 1;
        let dir = setup_root.join(opened.to_string());
        let net = read_net(&file)?;
        let cancel = CancelToken::new();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut router = TenantRouter::new(
            &net,
            StdFs,
            roots(&dir, opts.scale),
            clock.clone(),
            cancel.clone(),
        );
        if !matches!(router.status(TENANT), Reply::Report(_)) {
            return Err("tenant failed to open".to_string());
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server = NetServer::new(router, NetConfig::default(), clock, cancel.observer());
        std::hint::black_box((&server, &listener));
        drop((server, listener));
        Ok(net)
    };
    // The open loop runs in segments with set-up sampled between them,
    // so the samples are spread over the run without delaying a push.
    let per_segment = frames.len().div_ceil(SEGMENTS).max(1);
    let segments: Vec<&[Vec<u8>]> = frames.chunks(per_segment).collect();
    let due = crate::setup_schedule(segments.len());
    let mut setup = Vec::new();
    let dir = opts.work.join("server");
    let run = serve_and_push(&net, &dir, opts.scale, rate, &segments, &mut |k| {
        crate::time_setup(due[k], &mut setup, &mut set_up)
    })?;
    let _ = std::fs::remove_dir_all(&setup_root);

    crate::set_setup(res, setup);
    res.attempted = frames.len() as u64;
    res.failed = run.failed;
    run.check(res, frames.len());
    let lat_ms: Vec<f64> = run.latency_s.iter().map(|s| s * 1e3).collect();
    crate::set_latencies(res, &lat_ms);
    res.note(
        "ack_p99_ms",
        stats::percentile(&lat_ms, 0.99)
            .unwrap_or_else(|_| lat_ms.iter().copied().fold(0.0, f64::max)),
    );
    res.note("gen_lag_p99_ms", run.lag_p99_ms);
    res.note("state_bytes", dir_bytes(&dir.join("state")));
    let _ = std::fs::remove_dir_all(&dir);
    res.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// What a socket run observed.
struct NetRun {
    /// Latency per push, from its due time, seconds.
    latency_s: Vec<f64>,
    lag_p99_ms: f64,
    acks: usize,
    failed: u64,
    applied: u64,
    duplicates: u64,
}

impl NetRun {
    /// Records the run's output checks. Generator lag is reported, not
    /// checked: latency counts from the due time, so a late send is
    /// charged to the push rather than hidden, and a busy host must not
    /// turn a correct run into a failed one.
    fn check(&self, res: &mut RunResult, pushes: usize) {
        res.check(
            "every push acked exactly once",
            self.acks == pushes && self.latency_s.len() == pushes,
            format!(
                "{} acks, {} replies for {pushes} pushes",
                self.acks,
                self.latency_s.len()
            ),
        );
        res.check(
            "every push applied exactly once",
            self.applied == pushes as u64 && self.duplicates == 0,
            format!("{} applied, {} duplicates", self.applied, self.duplicates),
        );
    }
}

/// Sleeps until shortly before `due`, then spins, so sends leave on time.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(300));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Reads one reply frame, or gives up after [`REPLY_TIMEOUT`].
fn read_reply(reader: &mut FrameReader, stream: &mut TcpStream) -> io::Result<Reply> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        match reader.poll(stream) {
            Ok(Poll::Frame(body)) => {
                return Reply::decode_body(&body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
            Ok(Poll::Pending | Poll::TimedOut) if Instant::now() < deadline => {}
            Ok(Poll::Pending | Poll::TimedOut) => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"))
            }
            Ok(Poll::Eof { .. }) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ))
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        }
    }
}

/// Starts the server on loopback, sends each of `segments` open loop at
/// `rate` (calling `between(k)` before segment `k` and
/// `between(segments.len())` after the last), then stops the server and
/// reads the tenant's counters.
fn serve_and_push(
    net: &RoadNetwork,
    dir: &Path,
    scale: Scale,
    rate: f64,
    segments: &[&[Vec<u8>]],
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<NetRun, String> {
    let cancel = CancelToken::new();
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let router = TenantRouter::new(net, StdFs, roots(dir, scale), clock.clone(), cancel.clone());
    let cfg = NetConfig {
        read_timeout_ms: 20,
        ..NetConfig::default()
    };
    let server = NetServer::new(router, cfg, clock, cancel.observer());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let client = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(&listener));
        let client = open_loop(addr, rate, segments, between);
        cancel.cancel();
        let served = serving.join();
        match (client, served) {
            (Ok(c), Ok(Ok(()))) => Ok(c),
            (Err(e), _) => Err(e),
            (_, Ok(Err(e))) => Err(format!("server: {e}")),
            (_, Err(_)) => Err("server thread panicked".to_string()),
        }
    })?;
    let mut router = server.into_router();
    router.drain_all(64);
    let health = router.health_of(TENANT).unwrap_or_default();
    Ok(NetRun {
        applied: health.applied,
        duplicates: health.duplicates_skipped,
        ..client
    })
}

/// The load generator: one connection, and per segment a writer thread
/// sending on the schedule while this thread reads the replies. Each
/// segment starts a fresh schedule once every reply of the one before is
/// in and `between` has returned.
fn open_loop(
    addr: SocketAddr,
    rate: f64,
    segments: &[&[Vec<u8>]],
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<NetRun, String> {
    let client = |e: io::Error| format!("client: {e}");
    let mut stream = TcpStream::connect(addr).map_err(client)?;
    stream.set_nodelay(true).map_err(client)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(client)?;
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);

    let (mut latency_s, mut lag_ms, mut acks, mut pushes) = (Vec::new(), Vec::new(), 0, 0);
    for (k, frames) in segments.iter().enumerate() {
        between(k)?;
        let mut writer = stream.try_clone().map_err(client)?;
        let start = Instant::now() + Duration::from_millis(20);
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let (sent, received) = std::thread::scope(|s| {
            let sender = s.spawn(move || -> io::Result<Vec<f64>> {
                let mut lag = Vec::with_capacity(frames.len());
                for (i, frame) in frames.iter().enumerate() {
                    wait_until(due(i));
                    lag.push(due(i).elapsed().as_secs_f64());
                    writer.write_all(frame)?;
                }
                Ok(lag)
            });
            let mut received = Vec::with_capacity(frames.len());
            for _ in 0..frames.len() {
                match read_reply(&mut reader, &mut stream) {
                    Ok(reply) => received.push((Instant::now(), reply)),
                    Err(e) => return (sender.join(), Err(e)),
                }
            }
            (sender.join(), Ok(received))
        });
        let lag = sent
            .map_err(|_| "client: sender panicked".to_string())?
            .map_err(client)?;
        let received = received.map_err(client)?;
        pushes += frames.len();
        acks += received
            .iter()
            .filter(|(_, r)| matches!(r, Reply::Ack { .. }))
            .count();
        latency_s.extend(
            received
                .iter()
                .enumerate()
                .map(|(i, (at, _))| at.duration_since(due(i)).as_secs_f64()),
        );
        lag_ms.extend(lag.iter().map(|s| s * 1e3));
    }
    between(segments.len())?;
    stream.shutdown(std::net::Shutdown::Both).map_err(client)?;

    // Below a thousand sends p99 is not supported; the maximum bounds it.
    let lag_p99_ms = stats::percentile(&lag_ms, 0.99)
        .unwrap_or_else(|_| lag_ms.iter().copied().fold(0.0, f64::max));
    Ok(NetRun {
        latency_s,
        lag_p99_ms,
        acks,
        failed: (pushes - acks) as u64,
        applied: 0,
        duplicates: 0,
    })
}

/// In-process pushes through `TenantRouter::push` (no socket), timed one
/// by one, optionally inside spans.
fn push_in_process<F: Fs + Clone>(
    fs: F,
    net: &RoadNetwork,
    dir: &Path,
    scale: Scale,
    pushes: &[Push],
    tracer: Option<&Tracer>,
) -> (Vec<f64>, usize, neat_svc::Health) {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut router = TenantRouter::new(net, fs, roots(dir, scale), clock, CancelToken::new());
    let mut times = Vec::with_capacity(pushes.len());
    let mut acks = 0;
    for (i, p) in pushes.iter().enumerate() {
        let (reply, dt) = timed(|| match tracer {
            Some(t) => t.span("tenant.push", i as u64, || {
                router.push(TENANT, &p.id, &p.payload)
            }),
            None => router.push(TENANT, &p.id, &p.payload),
        });
        times.push(dt);
        if matches!(reply, Reply::Ack { .. }) {
            acks += 1;
        }
    }
    (times, acks, router.health_of(TENANT).unwrap_or_default())
}

fn traced(
    opts: &Opts,
    rate: f64,
    net: &RoadNetwork,
    pushes: &[Push],
    frames: &[Vec<u8>],
    res: &mut RunResult,
) -> Result<(), String> {
    // In-process pushes without and with tracing: their ratio is the
    // tracing overhead, and the traced run counts every file operation.
    let n = pushes.len();
    let dir = opts.work.join("plain");
    let (plain, plain_acks, _) = push_in_process(StdFs, net, &dir, opts.scale, pushes, None);
    let _ = std::fs::remove_dir_all(&dir);

    let tracer = Tracer::new();
    let dir = opts.work.join("traced");
    let fs = TracedFs::new(StdFs);
    let (traced, traced_acks, health) =
        push_in_process(fs.clone(), net, &dir, opts.scale, pushes, Some(&tracer));
    let state_bytes = dir_bytes(&dir.join("state"));
    let _ = std::fs::remove_dir_all(&dir);

    // The codec on its own: client-side request encoding, server-side
    // request decoding, per push.
    let mut encode_us = Vec::with_capacity(n);
    let mut decode_us = Vec::with_capacity(n);
    let mut decode_ok = true;
    for (i, p) in pushes.iter().enumerate() {
        let request = p.request();
        let (frame, enc) = timed(|| tracer.span("frame.encode", i as u64, || request.encode()));
        let body = &frame[HEADER_LEN..];
        let (decoded, dec) =
            timed(|| tracer.span("frame.decode", i as u64, || Request::decode_body(body)));
        decode_ok &= matches!(&decoded, Ok(r) if *r == request) && frame == frames[i];
        encode_us.push(enc * 1e6);
        decode_us.push(dec * 1e6);
    }

    // A shorter socket run gives the acknowledgement latency that the
    // tenant push time is subtracted from.
    let half = &frames[..n / 2];
    let dir = opts.work.join("server");
    let sock = serve_and_push(net, &dir, opts.scale, rate, &[half], &mut |_| Ok(()))?;
    let _ = std::fs::remove_dir_all(&dir);

    res.attempted = (2 * n + half.len()) as u64;
    res.failed = (2 * n - plain_acks - traced_acks) as u64 + sock.failed;
    sock.check(res, half.len());
    res.check(
        "in-process pushes all acked",
        plain_acks == n && traced_acks == n,
        format!("{plain_acks} and {traced_acks} of {n}"),
    );
    res.check("frames round-trip", decode_ok, format!("{n} requests"));

    let push_ms: Vec<f64> = traced.iter().map(|s| s * 1e3).collect();
    let p50 = stats::median(&push_ms);
    res.set("tenant.push_ms_p50", p50);
    res.set(
        "tenant.push_ms_p90",
        stats::tail(&push_ms, 0.9).map_or(f64::NAN, |(_, v)| v),
    );
    res.set("frame.encode_us", stats::median(&encode_us));
    res.set("frame.decode_us", stats::median(&decode_us));
    res.set(
        "frame.request_bytes",
        stats::median(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>()),
    );
    let ack_ms: Vec<f64> = sock.latency_s.iter().map(|s| s * 1e3).collect();
    res.set("net.overhead_ms", stats::median(&ack_ms) - p50);
    res.set("net.gen_lag_p99_ms", sock.lag_p99_ms);
    res.set("checkpoint.saves", health.checkpoints as f64);
    res.set("retention.expiries", health.expiries as f64);
    res.set(
        "retention.expired_fragments",
        health.expired_fragments as f64,
    );
    let d = health.drift;
    res.set(
        "retention.drift_events",
        (d.born + d.grew + d.shrank + d.merged + d.died) as f64,
    );
    set_fs_counters(res, &fs, state_bytes);
    let (plain_s, traced_s): (f64, f64) = (plain.iter().sum(), traced.iter().sum());
    res.set("trace.overhead_ratio", traced_s / plain_s);
    crate::zero_unreached(res);
    crate::write_trace(opts, res, &tracer.spans());
    Ok(())
}
