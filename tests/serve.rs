//! End-to-end tests of the `tepic-ccd` serving layer (DESIGN.md §17):
//! protocol round-trips against a live in-process server, single-flight
//! coalescing under a cold-key stampede, bounded-admission
//! backpressure, graceful drain, warm-path byte-identity against the
//! one-shot pipeline, and codec memoization on repeated simulates.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tepic_ccc::bench::engine::{scheme_by_name, Engine};
use tepic_ccc::bench::serve::proto::{
    read_frame, write_frame, JobOp, JobRequest, Request, MAX_FRAME,
};
use tepic_ccc::bench::serve::{DispatchGate, ServeConfig, ServerHandle};
use tepic_ccc::ccc::schemes::{lookup, EncodingClass};
use tepic_ccc::fetch::{simulate, FetchConfig};
use tepic_ccc::telemetry::parse_json;
use tepic_ccc::workgen::{generate_program, Flavor, GenParams};

/// A scratch cache dir unique to this test, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "ccc-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_source(tag: u64) -> String {
    generate_program(
        tag,
        &GenParams::for_flavor(Flavor::Tepic),
        &format!("serve-test-{tag}"),
    )
    .source
}

fn job(op: JobOp, name: &str, source: &str, scheme: &str, seed: u64) -> Request {
    Request::Job(JobRequest {
        op,
        name: name.to_string(),
        scheme: scheme.to_string(),
        seed,
        source: source.to_string(),
    })
}

fn roundtrip(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_frame(stream, req.canonical().as_bytes()).expect("write frame");
    read_frame(stream)
        .expect("read frame")
        .expect("server responded")
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect to in-process daemon")
}

fn poll_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn start_uncached(cfg: ServeConfig) -> ServerHandle {
    ServerHandle::start(Engine::uncached(2), cfg).expect("bind ephemeral port")
}

#[test]
fn ping_and_metrics_round_trip() {
    let server = start_uncached(ServeConfig::default());
    let mut c = connect(server.local_addr());

    let pong = roundtrip(&mut c, &Request::Ping);
    let v = parse_json(std::str::from_utf8(&pong).unwrap()).expect("ping response is JSON");
    assert_eq!(v.get("msg").and_then(|m| m.as_str()), Some("pong"));

    let metrics = roundtrip(&mut c, &Request::Metrics);
    let v = parse_json(std::str::from_utf8(&metrics).unwrap()).expect("metrics response is JSON");
    let counters = v
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters present");
    assert!(
        counters.get("serve.requests").is_some(),
        "request counter exported"
    );

    server.shutdown();
    server.join();
}

#[test]
fn warm_hits_are_byte_identical_to_one_shot_artifacts() {
    let scratch = ScratchDir::new("warm");
    let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let source = small_source(11);
    let req = job(JobOp::Encode, "warmcheck", &source, "full", 0);

    let cold = roundtrip(&mut connect(server.local_addr()), &req);
    let warm = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(cold, warm, "warm response must be byte-identical to cold");

    // The daemon's image must be exactly the one-shot CLI pipeline's.
    let v = parse_json(std::str::from_utf8(&cold).unwrap()).expect("encode response is JSON");
    let hex = v
        .get("image_hex")
        .and_then(|h| h.as_str())
        .expect("image_hex present");
    let served = tepic_ccc::bench::serve::proto::from_hex(hex).expect("valid hex");
    let program = lego::compile(&source, &lego::Options::default()).expect("compiles");
    let local = tepic_ccc::ccc::encoded_to_bytes(
        &scheme_by_name("full")
            .unwrap()
            .compress(&program)
            .expect("compresses")
            .image,
    );
    assert_eq!(served, local, "daemon image differs from one-shot artifact");

    // And the warm request was really served from cache: one miss
    // (the cold build), at least one hit (the warm one).
    let snap_gauges = roundtrip(&mut connect(server.local_addr()), &Request::Metrics);
    let v = parse_json(std::str::from_utf8(&snap_gauges).unwrap()).unwrap();
    let gauges = v.get("metrics").and_then(|m| m.get("gauges")).unwrap();
    assert_eq!(
        gauges
            .get("serve.engine.image_misses")
            .and_then(|g| g.as_f64()),
        Some(1.0)
    );
    assert_eq!(
        gauges
            .get("serve.engine.image_hits")
            .and_then(|g| g.as_f64()),
        Some(1.0)
    );

    server.shutdown();
    server.join();
}

#[test]
fn cold_stampede_coalesces_to_one_build() {
    let gate = DispatchGate::closed();
    let cfg = ServeConfig {
        jobs: 4,
        gate: Some(Arc::clone(&gate)),
        ..ServeConfig::default()
    };
    let server = start_uncached(cfg);
    let source = small_source(22);
    let req = job(JobOp::Encode, "stampede", &source, "byte", 0);

    const N: usize = 6;
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let req = req.clone();
                let addr = server.local_addr();
                scope.spawn(move || roundtrip(&mut connect(addr), &req))
            })
            .collect();
        // All requests but the leader must be parked on the leader's
        // flight before the build is allowed to run.
        poll_until("N-1 coalesced waiters", || {
            server.registry().counter("serve.coalesced_waits").get() == (N - 1) as u64
        });
        gate.open();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one build ran; the waiter counter reconciles 1:1 with
    // the stampede size; every response is byte-identical.
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 1);
    assert_eq!(
        server.registry().counter("serve.coalesced_waits").get(),
        (N - 1) as u64
    );
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "coalesced responses must be identical");
    }
    let v = parse_json(std::str::from_utf8(&responses[0]).unwrap()).unwrap();
    assert_eq!(
        v.get("ok")
            .map(|o| o == &tepic_ccc::telemetry::JsonValue::Bool(true)),
        Some(true)
    );

    // A later identical request is its own flight (the finished one
    // was deregistered) but still yields the same bytes.
    let again = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(again, responses[0]);
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 2);

    server.shutdown();
    server.join();
}

#[test]
fn full_admission_queue_answers_busy() {
    let gate = DispatchGate::closed();
    let cfg = ServeConfig {
        jobs: 1,
        queue_depth: 1,
        gate: Some(Arc::clone(&gate)),
        ..ServeConfig::default()
    };
    let server = start_uncached(cfg);
    let addr = server.local_addr();
    let src_a = small_source(31);
    let src_b = small_source(32);
    let src_c = small_source(33);

    std::thread::scope(|scope| {
        // A is dequeued by the dispatcher and parked at the gate.
        let a = scope.spawn({
            let req = job(JobOp::Encode, "busy-a", &src_a, "byte", 0);
            move || roundtrip(&mut connect(addr), &req)
        });
        poll_until("dispatcher to claim job A", || {
            let m = roundtrip(&mut connect(addr), &Request::Metrics);
            let v = parse_json(std::str::from_utf8(&m).unwrap()).unwrap();
            v.get("metrics")
                .and_then(|m| m.get("gauges"))
                .and_then(|g| g.get("serve.queue_len"))
                .and_then(|q| q.as_f64())
                == Some(0.0)
                && server.registry().counter("serve.requests").get() >= 1
        });
        // B fills the queue (depth 1).
        let b = scope.spawn({
            let req = job(JobOp::Encode, "busy-b", &src_b, "byte", 0);
            move || roundtrip(&mut connect(addr), &req)
        });
        poll_until("job B to occupy the queue", || {
            let m = roundtrip(&mut connect(addr), &Request::Metrics);
            let v = parse_json(std::str::from_utf8(&m).unwrap()).unwrap();
            v.get("metrics")
                .and_then(|m| m.get("gauges"))
                .and_then(|g| g.get("serve.queue_len"))
                .and_then(|q| q.as_f64())
                == Some(1.0)
        });
        // C must bounce immediately with a typed busy error.
        let req_c = job(JobOp::Encode, "busy-c", &src_c, "byte", 0);
        let c_resp = roundtrip(&mut connect(addr), &req_c);
        let v = parse_json(std::str::from_utf8(&c_resp).unwrap()).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("busy"),
            "third job must be rejected: {}",
            String::from_utf8_lossy(&c_resp)
        );
        assert_eq!(server.registry().counter("serve.busy_rejections").get(), 1);

        // Opening the gate lets A and B finish normally.
        gate.open();
        let va = parse_json(std::str::from_utf8(&a.join().unwrap()).unwrap()).unwrap();
        let vb = parse_json(std::str::from_utf8(&b.join().unwrap()).unwrap()).unwrap();
        for v in [va, vb] {
            assert_eq!(
                v.get("ok"),
                Some(&tepic_ccc::telemetry::JsonValue::Bool(true))
            );
        }
    });

    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_finishes_jobs_and_refuses_new_connections() {
    let server = start_uncached(ServeConfig::default());
    let addr = server.local_addr();
    let source = small_source(44);

    let mut c = connect(addr);
    let before = roundtrip(&mut c, &job(JobOp::Compile, "drainer", &source, "full", 0));
    assert!(String::from_utf8_lossy(&before).contains("\"ok\":true"));

    // Shutdown over the wire; the ack must arrive on this connection.
    let ack = roundtrip(&mut c, &Request::Shutdown);
    assert!(String::from_utf8_lossy(&ack).contains("\"draining\":true"));

    // A job on the still-open connection gets a typed draining error.
    let rejected = roundtrip(&mut c, &job(JobOp::Compile, "late", &source, "full", 0));
    let v = parse_json(std::str::from_utf8(&rejected).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("draining")
    );

    // join() returns (accept loop + dispatcher exit) and the port is
    // then refused for new connections.
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained daemon must refuse new connections"
    );
}

#[test]
fn repeated_simulates_memoize_the_decoder_tables() {
    let scratch = ScratchDir::new("memo");
    let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let source = small_source(55);
    let req = job(JobOp::Simulate, "memo", &source, "stream", 0);

    let first = roundtrip(&mut connect(server.local_addr()), &req);
    let second = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(first, second, "simulate responses must be deterministic");
    assert!(String::from_utf8_lossy(&first).contains("\"blocks_decoded\""));

    // Satellite 3: the second simulate reuses the memoized codec
    // instead of rebuilding its LUT tables, and the win is
    // visible in the decode.* counters.
    assert_eq!(
        server.registry().counter("decode.codec_memo_misses").get(),
        1,
        "exactly one codec build"
    );
    assert_eq!(
        server.registry().counter("decode.codec_memo_hits").get(),
        1,
        "second simulate hits the memo"
    );
    // Both simulates really decoded blocks (the memo did not skip
    // decode work, only table construction).
    let blocks = server.registry().counter("decode.blocks_decoded").get();
    assert!(
        blocks > 0,
        "decode counters must accumulate across requests"
    );

    server.shutdown();
    server.join();
}

/// The fetch path follows the scheme's registered class: only
/// Compressed images decode on the hit path, and every class simulates
/// under its own Table-1 configuration.
#[test]
fn simulate_picks_the_fetch_path_from_the_scheme_class() {
    let server = start_uncached(ServeConfig::default());
    let source = small_source(77);
    let engine = Engine::uncached(1);
    let opts = lego::Options::default();
    let program = engine.program("class", &source, &opts).expect("compiles");
    let trace = engine
        .trace("class", &source, &opts, &program)
        .expect("runs");
    for name in [
        "base", "byte", "stream", "stream_1", "full", "tailored", "stream_3",
    ] {
        let class = lookup(name).expect("registered").class;
        let resp = roundtrip(
            &mut connect(server.local_addr()),
            &job(JobOp::Simulate, "class", &source, name, 0),
        );
        let v = parse_json(std::str::from_utf8(&resp).unwrap()).unwrap();
        let num = |k: &str| v.get(k).and_then(|n| n.as_u64()).expect(k);
        assert_eq!(
            num("blocks_decoded") == 0,
            class != EncodingClass::Compressed,
            "{name}: decoded path must match class {class:?}"
        );
        let image = engine
            .image("class", &source, &opts, name, &program)
            .expect("encodes");
        let local = simulate(&program, &image, &trace, &FetchConfig::for_class(class));
        assert_eq!(num("cycles"), local.cycles, "{name}: cycles");
    }
    server.shutdown();
    server.join();
}

#[test]
fn faultsim_is_deterministic_per_seed_and_varies_across_seeds() {
    let scratch = ScratchDir::new("fault");
    let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let source = small_source(66);

    let r7a = roundtrip(
        &mut connect(server.local_addr()),
        &job(JobOp::Faultsim, "fsim", &source, "full", 7),
    );
    let r7b = roundtrip(
        &mut connect(server.local_addr()),
        &job(JobOp::Faultsim, "fsim", &source, "full", 7),
    );
    assert_eq!(r7a, r7b, "equal seeds reproduce the fault campaign");
    let v = parse_json(std::str::from_utf8(&r7a).unwrap()).unwrap();
    assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(7.0));

    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_daemon() {
    let server = start_uncached(ServeConfig::default());
    let addr = server.local_addr();

    // Malformed JSON payload: typed bad_json error, connection stays up.
    let mut c = connect(addr);
    write_frame(&mut c, b"this is not json").unwrap();
    let resp = read_frame(&mut c).unwrap().expect("error response");
    let v = parse_json(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_json")
    );
    // Same connection still serves valid requests afterwards.
    let pong = roundtrip(&mut c, &Request::Ping);
    assert!(String::from_utf8_lossy(&pong).contains("pong"));

    // Valid JSON, invalid request: bad_request.
    write_frame(&mut c, br#"{"op":"transmogrify"}"#).unwrap();
    let resp = read_frame(&mut c).unwrap().expect("error response");
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"bad_request\""));

    // Unknown scheme on a job: unknown_scheme.
    let resp = roundtrip(
        &mut c,
        &job(JobOp::Encode, "x", "fn main() { print(1); }", "nope", 0),
    );
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"unknown_scheme\""));

    // Uncompilable source: typed compile_error, not a crash.
    let resp = roundtrip(&mut c, &job(JobOp::Compile, "x", "fn fn fn", "full", 0));
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"compile_error\""));

    // Oversized frame: typed error, then the server closes that
    // connection (it cannot resync past an unread payload).
    use std::io::Write as _;
    let mut over = connect(addr);
    over.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    let resp = read_frame(&mut over).unwrap().expect("oversized error");
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"oversized\""));

    // Truncated frame (client vanishes mid-payload): daemon survives.
    let mut trunc = connect(addr);
    trunc.write_all(&[0, 0, 0, 50, 1, 2, 3]).unwrap();
    drop(trunc);

    // After all that abuse a fresh connection still works.
    let pong = roundtrip(&mut connect(addr), &Request::Ping);
    assert!(String::from_utf8_lossy(&pong).contains("pong"));

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Wire-protocol property tests (satellite 4): no payload may panic the
// parser, every rejection is a typed error whose body is itself valid
// JSON, and valid frames round-trip byte-exactly.
// ---------------------------------------------------------------------------

mod proto_props {
    use proptest::prelude::*;
    use std::io::Cursor;
    use tepic_ccc::bench::serve::proto::{
        read_frame, write_frame, FrameError, JobOp, JobRequest, Request, MAX_FRAME,
    };
    use tepic_ccc::telemetry::parse_json;

    fn ident() -> BoxedStrategy<String> {
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_-./ \"\\{}"
            .chars()
            .collect();
        prop::collection::vec(prop::sample::select(alphabet), 1..24usize)
            .prop_map(|cs| cs.into_iter().collect())
            .boxed()
    }

    fn job_request() -> BoxedStrategy<Request> {
        (
            prop::sample::select(vec![
                JobOp::Compile,
                JobOp::Encode,
                JobOp::Simulate,
                JobOp::Faultsim,
            ]),
            ident(),
            ident(),
            any::<u64>(),
            ident(),
        )
            .prop_map(|(op, name, scheme, seed, source)| {
                Request::Job(JobRequest {
                    op,
                    name,
                    scheme,
                    seed,
                    source,
                })
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the parser; when they are
        /// rejected, the typed error body is itself well-formed JSON
        /// with a machine-readable kind.
        #[test]
        fn arbitrary_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..256usize)) {
            if let Err(e) = Request::parse(&payload) {
                let v = parse_json(&e.body()).expect("error body is valid JSON");
                let kind = v.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str());
                prop_assert!(kind.is_some(), "typed kind present");
            }
        }

        /// A canonically-rendered job request parses back to exactly
        /// the request that produced it, hostile field contents (JSON
        /// metacharacters, backslashes) included.
        #[test]
        fn canonical_job_requests_round_trip(req in job_request()) {
            let rendered = req.canonical();
            let back = Request::parse(rendered.as_bytes())
                .expect("canonical form must parse");
            prop_assert_eq!(&back, &req);
            // Canonical rendering is a fixpoint: render(parse(render(r)))
            // is byte-identical, which is what single-flight keying and
            // the byte-identity acceptance check lean on.
            prop_assert_eq!(back.canonical(), rendered);
        }

        /// Any sequence of frames written back-to-back on one stream is
        /// read back in order, byte-exactly, with a clean EOF after.
        #[test]
        fn frame_streams_round_trip(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128usize), 0..8usize)
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let mut r = Cursor::new(wire);
            for p in &payloads {
                let got = read_frame(&mut r).expect("frame reads").expect("frame present");
                prop_assert_eq!(&got, p);
            }
            prop_assert!(read_frame(&mut r).expect("clean eof").is_none());
        }

        /// Truncating a valid frame stream at any byte yields clean EOF
        /// (cut on a frame boundary) or a typed Truncated error — never
        /// a panic, never a phantom frame beyond the cut.
        #[test]
        fn truncated_streams_fail_typed(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64usize), 1..5usize),
            cut_seed in any::<u64>()
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let cut = (cut_seed % (wire.len() as u64 + 1)) as usize;
            let mut r = Cursor::new(&wire[..cut]);
            let mut seen = 0usize;
            loop {
                match read_frame(&mut r) {
                    Ok(Some(p)) => {
                        prop_assert_eq!(&p, &payloads[seen]);
                        seen += 1;
                    }
                    Ok(None) => break, // clean EOF on a frame boundary
                    Err(FrameError::Truncated) => break,
                    Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
                }
            }
            prop_assert!(seen <= payloads.len());
        }

        /// Oversized length prefixes are rejected before any allocation
        /// of the advertised size.
        #[test]
        fn oversized_prefixes_rejected(extra in 1u64..1_000_000) {
            let len = (MAX_FRAME as u64 + extra).min(u32::MAX as u64) as u32;
            let mut wire = len.to_be_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            match read_frame(&mut Cursor::new(wire)) {
                Err(FrameError::Oversized(n)) => prop_assert!(n > MAX_FRAME),
                other => prop_assert!(false, "expected Oversized, got {other:?}"),
            }
        }
    }
}
