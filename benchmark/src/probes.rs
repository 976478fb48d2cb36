//! Per-layer probes: each times calls into one layer's public functions
//! from outside, on inputs shaped like the workloads'. They run after the
//! traced pass of a traced run, one at a time, each inside a span.
//!
//! A cost that is nanoseconds per call is timed over batches and reported
//! as the median batch; a latency is reported as the median operation.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streammine::common::codec::{decode_from_slice, encode_to_vec};
use streammine::common::{DetRng, Event, EventId, OperatorId, Value};
use streammine::core::{Control, LoggingConfig, Message, OperatorConfig};
use streammine::net::{link, LinkConfig, LinkError, TcpTransport, Transport};
use streammine::stm::{Serial, Speculator, StmRuntime};
use streammine::storage::{DiskSpec, StableLog};

use crate::engine::{self, Sut};
use crate::report::Metric;
use crate::spans::Spans;
use crate::stats;
use crate::stream::{self, Pacer};
use crate::watchdog::{self, STALL};
use crate::workloads;

/// Median over `batches` of the mean cost of `op` in one batch, ns.
fn ns_per_op(batches: usize, per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut costs = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        for i in 0..per_batch {
            op(b * per_batch + i);
        }
        costs.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    stats::median(costs)
}

fn workload_event(i: u64) -> Event {
    let payload = Value::record(vec![Value::Int(i as i64), Value::Int((i * 0x9E37_79B9) as i64)]);
    Event::new(EventId::new(OperatorId::new(1), i), 1_000_000 + i, payload)
}

/// `common.codec` and `core.message`: encode/decode of one workload event
/// and of a 32-event batch frame.
fn codec(out: &mut Vec<Metric>) {
    let ev = workload_event(7);
    let bytes = encode_to_vec(&ev);
    out.push(Metric::new(
        "common.codec.event_encode_ns",
        ns_per_op(9, 20_000, |_| {
            black_box(encode_to_vec(black_box(&ev)));
        }),
        "ns",
    ));
    out.push(Metric::new(
        "common.codec.event_decode_ns",
        ns_per_op(9, 20_000, |_| {
            black_box(decode_from_slice::<Event>(black_box(&bytes)).expect("own encoding"));
        }),
        "ns",
    ));
    out.push(Metric::new("common.codec.event_bytes", bytes.len() as f64, "B"));

    let batch = Message::DataBatch((0..32).map(workload_event).collect());
    let frame = encode_to_vec(&batch);
    out.push(Metric::new(
        "core.message.batch32_encode_ns_per_event",
        ns_per_op(9, 2_000, |_| {
            black_box(encode_to_vec(black_box(&batch)));
        }) / 32.0,
        "ns",
    ));
    out.push(Metric::new(
        "core.message.batch32_decode_ns_per_event",
        ns_per_op(9, 2_000, |_| {
            black_box(decode_from_slice::<Message>(black_box(&frame)).expect("own encoding"));
        }) / 32.0,
        "ns",
    ));
}

/// `net.link`: a two-thread ping-pong over two in-memory links (one hop
/// is half the round trip), and a one-way stream with the receiver
/// acknowledging every 16 frames as a sink does.
fn net_link(out: &mut Vec<Metric>) {
    let msg = Message::Data(workload_event(1));

    let (ping_tx, ping_rx) = link::<Message>(LinkConfig::instant());
    let (pong_tx, pong_rx) = link::<Message>(LinkConfig::instant());
    let mut hops = Vec::with_capacity(20_000);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok((_, m)) = ping_rx.recv() {
                let Ok(seq) = pong_tx.send(m) else { break };
                pong_tx.ack_upto(seq + 1);
            }
        });
        for _ in 0..20_000 {
            let t0 = Instant::now();
            let seq = ping_tx.send(msg.clone()).expect("idle link has credit");
            pong_rx.recv().expect("echo thread alive");
            hops.push(t0.elapsed().as_nanos() as f64 / 2.0);
            ping_tx.ack_upto(seq + 1);
        }
        drop(ping_tx); // ends the echo thread
    });
    stats::sort(&mut hops);
    out.push(Metric::new("net.link.hop_p50_ns", stats::percentile(&hops, 0.5), "ns"));

    const STREAM: u64 = 200_000;
    let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
    let (ack_tx, ack_rx) = link::<Control>(LinkConfig::instant());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for n in 1..=STREAM {
                let Ok((seq, _)) = data_rx.recv() else { break };
                if n % 16 == 0 {
                    let _ = ack_tx.send(Control::Ack { upto: seq + 1 });
                    ack_tx.ack_upto(u64::MAX);
                }
            }
        });
        for _ in 0..STREAM {
            while let Err(LinkError::Saturated) = data_tx.send(msg.clone()) {
                std::thread::yield_now();
            }
            while let Ok(Some((_, Control::Ack { upto }))) = ack_rx.try_recv() {
                data_tx.ack_upto(upto);
            }
        }
    });
    out.push(Metric::new(
        "net.link.stream_ns_per_msg",
        t0.elapsed().as_nanos() as f64 / STREAM as f64,
        "ns",
    ));
}

/// `net.tcp`: 64-byte CRC frames over loopback — echo round trips, then a
/// one-way stream closed by a single reply.
fn net_tcp(out: &mut Vec<Metric>) -> Result<(), String> {
    const STREAM: usize = 100_000;
    const ECHOES: usize = 5_000;
    // Generous deadlines: a peer that fails still unblocks the other
    // side, but a scheduling stall does not fail the probe.
    let patience = Duration::from_secs(5);
    let transport = TcpTransport::new().with_read_timeout(patience).with_write_timeout(patience);
    let listener = transport.bind("127.0.0.1:0").map_err(|e| format!("tcp probe bind: {e}"))?;
    // The connect completes against the listen backlog, so a failed dial
    // returns before any thread waits in `accept`.
    let mut conn =
        transport.dial(&listener.local_addr()).map_err(|e| format!("tcp probe dial: {e}"))?;
    let frame = [0x5Au8; 64];
    let mut rtts = Vec::with_capacity(ECHOES);
    let mut stream_ns = 0.0;
    let result: Result<(), String> = std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let mut conn = listener.accept().map_err(|e| format!("tcp probe accept: {e}"))?;
            for _ in 0..ECHOES {
                let f = conn.recv().map_err(|e| format!("tcp probe echo recv: {e}"))?;
                conn.send(&f).map_err(|e| format!("tcp probe echo send: {e}"))?;
            }
            for _ in 0..STREAM {
                conn.recv().map_err(|e| format!("tcp probe stream recv: {e}"))?;
            }
            conn.send(&[1]).map_err(|e| format!("tcp probe done: {e}"))
        });
        for _ in 0..ECHOES {
            let t0 = Instant::now();
            conn.send(&frame).map_err(|e| format!("tcp probe send: {e}"))?;
            conn.recv().map_err(|e| format!("tcp probe recv: {e}"))?;
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        let t0 = Instant::now();
        for _ in 0..STREAM {
            conn.send(&frame).map_err(|e| format!("tcp probe stream send: {e}"))?;
        }
        conn.recv().map_err(|e| format!("tcp probe stream done: {e}"))?;
        stream_ns = t0.elapsed().as_nanos() as f64 / STREAM as f64;
        echo.join().map_err(|_| "tcp probe echo thread panicked".to_string())?
    });
    result?;
    stats::sort(&mut rtts);
    out.push(Metric::new("net.tcp.frame_rtt_p50_us", stats::percentile(&rtts, 0.5), "us"));
    out.push(Metric::new("net.tcp.frame_stream_ns_per_frame", stream_ns, "ns"));
    Ok(())
}

/// Median latency (µs, push → final) and median generator lateness (µs)
/// of `count` integer events paced at `rate` after `warm` unmeasured ones.
fn paced_p50(sut: &Sut, warm: usize, count: usize, rate: f64, spans: &mut Spans) -> (f64, f64) {
    let inputs: Vec<Value> = (0..warm + count).map(|i| Value::Int(i as i64)).collect();
    let mut late = Vec::with_capacity(inputs.len());
    let drained = Pacer::new(rate).push(sut, &inputs, &mut late, spans)
        && sut.sink().wait_final(inputs.len(), STALL);
    // Finals arrive in push order on these single-source chains.
    let mut lat: Vec<f64> = sut.sink().final_latencies_us().into_iter().skip(warm).collect();
    if !drained || lat.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    stats::sort(&mut lat);
    let late_us = late[warm..].iter().map(|&n| n as f64 / 1e3).collect();
    (stats::percentile(&lat, 0.5), stats::median(late_us))
}

/// `core.dist.bridge`: one `identity` worker with a zero-latency log —
/// source → bridge → TCP → node → TCP → sink and nothing else.
fn bridge(worker_bin: &Path, spans: &mut Spans, out: &mut Vec<Metric>) -> Result<(), String> {
    let sut = engine::cluster(1, "identity", 0, worker_bin, false, spans)?;
    let (p50, _) = paced_p50(&sut, 40, 160, 200.0, spans);
    sut.finish(spans);
    out.push(Metric::new("core.dist.bridge.hop_nolog_p50_us", p50, "us"));
    Ok(())
}

fn record(i: usize) -> Vec<u8> {
    (i as u64).to_le_bytes().to_vec()
}

/// `storage.log`: append → stable on one simulated 2 ms device, idle and
/// paced like `chain4_spec`; the bare append call; and the group size
/// under as many outstanding appends as `chain4_sat` holds events.
fn storage_log(out: &mut Vec<Metric>) {
    let two_ms = || StableLog::new(vec![DiskSpec::simulated(engine::LOG_2MS)]);

    let log = two_ms();
    let mut idle: Vec<f64> = (0..80)
        .map(|i| {
            let t0 = Instant::now();
            log.append(record(i)).wait();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    log.shutdown();
    stats::sort(&mut idle);
    out.push(Metric::new(
        "storage.log.append_stable_idle_p50_us",
        stats::percentile(&idle, 0.5),
        "us",
    ));

    let log = two_ms();
    let stable_us = Arc::new(Mutex::new(Vec::with_capacity(150)));
    let t0 = Instant::now();
    for i in 0..150u32 {
        let due = t0 + Duration::from_secs_f64(f64::from(i) / 300.0);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let appended = Instant::now();
        let sink = stable_us.clone();
        log.append(record(i as usize)).subscribe(move || {
            let us = appended.elapsed().as_nanos() as f64 / 1e3;
            sink.lock().expect("probe callback panicked").push(us);
        });
    }
    log.shutdown();
    let mut paced = std::mem::take(&mut *stable_us.lock().expect("probe callback panicked"));
    stats::sort(&mut paced);
    out.push(Metric::new(
        "storage.log.append_stable_300_p50_us",
        stats::percentile(&paced, 0.5),
        "us",
    ));

    let log = StableLog::new(vec![DiskSpec::simulated(Duration::ZERO)]);
    let call_ns = ns_per_op(9, 5_000, |i| {
        black_box(log.append(record(i)));
    });
    log.shutdown();
    out.push(Metric::new("storage.log.append_call_ns", call_ns, "ns"));

    let log = two_ms();
    let mut outstanding = VecDeque::with_capacity(workloads::SAT_IN_FLIGHT);
    for i in 0..6_000 {
        if outstanding.len() == workloads::SAT_IN_FLIGHT {
            let oldest: streammine::storage::LogTicket =
                outstanding.pop_front().expect("window is full");
            oldest.wait();
        }
        outstanding.push_back(log.append(record(i)));
    }
    log.flush();
    let writes = log.devices()[0].write_count().max(1);
    out.push(Metric::new(
        "storage.log.group_size_mean",
        log.appended() as f64 / writes as f64,
        "count",
    ));
    log.shutdown();
}

/// `stm`: a three-update transaction and a three-read transaction on one
/// thread (execute → authorize → committed), and two threads racing over
/// the sketch's 256 × 3 counters.
fn stm(out: &mut Vec<Metric>) {
    let rt = StmRuntime::new();
    let vars: Vec<_> = (0..3).map(|_| rt.new_var(0i64)).collect();
    let rw = ns_per_op(9, 5_000, |i| {
        let (h, ()) = rt
            .execute(Serial(i as u64), |txn| {
                for v in &vars {
                    txn.update(v, |x| x + 1)?;
                }
                Ok(())
            })
            .expect("runtime is up");
        h.authorize();
        h.wait_committed();
    });
    out.push(Metric::new("stm.txn_rw3_ns", rw, "ns"));
    let base = 9 * 5_000;
    let read = ns_per_op(9, 5_000, |i| {
        let (h, sum) = rt
            .execute(Serial((base + i) as u64), |txn| {
                let mut sum = 0;
                for v in &vars {
                    sum += *txn.read(v)?;
                }
                Ok(sum)
            })
            .expect("runtime is up");
        black_box(sum);
        h.authorize();
        h.wait_committed();
    });
    out.push(Metric::new("stm.txn_read_fast_ns", read, "ns"));
    rt.shutdown();

    const TXNS: u64 = 2_000;
    let (w, d) = (engine::SKETCH_WIDTH, engine::SKETCH_DEPTH);
    let rt = StmRuntime::new();
    let cells: Arc<Vec<_>> = Arc::new((0..w * d).map(|_| rt.new_var(0i64)).collect());
    let spec = Speculator::new(rt.clone(), 2);
    let mut rng = DetRng::seed_from(engine::SKETCH_HASH_SEED);
    let t0 = Instant::now();
    for serial in 0..TXNS {
        let cells = cells.clone();
        let picks: Vec<usize> = (0..d).map(|r| r * w + rng.next_below(w as u64) as usize).collect();
        spec.submit(Serial(serial), move |txn| {
            for &p in &picks {
                txn.update(&cells[p], |x| x + 1)?;
            }
            Ok(())
        });
    }
    spec.wait_idle();
    let per_txn = t0.elapsed().as_nanos() as f64 / TXNS as f64;
    let s = rt.stats();
    spec.shutdown();
    rt.shutdown();
    out.push(Metric::new("stm.txn_2t_ns", per_txn, "ns"));
    out.push(Metric::new(
        "stm.txn_2t_abort_share",
        s.aborts_total() as f64 / s.started.max(1) as f64,
        "share",
    ));
}

/// `core.node`: one-operator graphs — the latency of one hop under each
/// execution mode at `chain4_spec`'s pace, and its closed-loop capacity.
fn node(spans: &mut Spans, out: &mut Vec<Metric>) {
    let modes = [
        ("core.node.hop_plain_p50_us", OperatorConfig::plain()),
        ("core.node.hop_spec_nolog_p50_us", OperatorConfig::speculative_unlogged()),
        (
            "core.node.hop_logged2ms_p50_us",
            OperatorConfig::logged(LoggingConfig::simulated(engine::LOG_2MS)),
        ),
    ];
    for (name, config) in modes {
        let sut = engine::relay_chain(1, &config, false, spans);
        let (p50, _) = paced_p50(&sut, 30, 150, 300.0, spans);
        sut.finish(spans);
        out.push(Metric::new(name, p50, "us"));
    }

    let inputs: Vec<Value> = (0..40_000).map(Value::Int).collect();
    let sut = engine::relay_chain(1, &OperatorConfig::plain(), false, spans);
    let t0 = Instant::now();
    // 40 000 pushes: no span each, the probe's own span covers them.
    let quiet = &mut Spans::new(false);
    let done = stream::push_closed(&sut, &inputs, 0, workloads::SAT_IN_FLIGHT, quiet)
        && sut.sink().wait_final(inputs.len(), STALL);
    let rate = if done { inputs.len() as f64 / t0.elapsed().as_secs_f64() } else { f64::NAN };
    sut.finish(spans);
    out.push(Metric::new("core.node.sat_plain_ev_s", rate, "1/s"));
}

/// The workload-independent probes, in table order.
pub fn run(worker_bin: &Path, spans: &mut Spans) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    spans.enter("probes", 0);
    let t = spans.begin("probe.codec");
    codec(&mut out);
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.net.link");
    net_link(&mut out);
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.net.tcp");
    net_tcp(&mut out)?;
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.core.dist.bridge");
    bridge(worker_bin, spans, &mut out)?;
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.storage.log");
    storage_log(&mut out);
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.stm");
    stm(&mut out);
    spans.end(t);
    watchdog::beat();
    let t = spans.begin("probe.core.node");
    node(spans, &mut out);
    spans.end(t);
    watchdog::beat();
    Ok(out)
}

/// Reconciliation passes: a short untraced `chain4_spec` and `tcp_chain3`
/// whose median latency is set against the sum of the layer medians on
/// the blocking path. Returns, per pass, the end-to-end p50 and the
/// generator's median lateness (which the end-to-end latency includes).
pub fn recon_passes(worker_bin: &Path, spans: &mut Spans) -> Result<[(f64, f64); 2], String> {
    spans.enter("recon", 0);
    let t = spans.begin("recon.chain4_spec");
    let sut = engine::chain4(false, spans);
    let chain4 = paced_p50(&sut, 100, 300, 300.0, spans);
    sut.finish(spans);
    spans.end(t);
    let t = spans.begin("recon.tcp_chain3");
    let sut = engine::cluster(3, "random-tagger", 2000, worker_bin, false, spans)?;
    let tcp = paced_p50(&sut, 60, 240, 200.0, spans);
    sut.finish(spans);
    spans.end(t);
    Ok([chain4, tcp])
}
