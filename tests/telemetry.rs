//! Integration tests for the unified telemetry layer (DESIGN.md §12):
//! histogram accounting must conserve samples, and the Chrome-trace
//! exporter must emit JSON that round-trips through the in-crate parser
//! with its event totals intact. That tracing observes without steering
//! is tested next to the fetch loop, in `ifetch-sim`'s engine tests.

use proptest::prelude::*;
use tepic_ccc::prelude::*;
use tepic_ccc::telemetry::{
    chrome_trace_json, parse_json, EventCounts, FetchEventKind, JsonValue, TraceEvent, TraceMeta,
};

fn fetch_kind() -> impl Strategy<Value = FetchEventKind> {
    prop_oneof![
        (0u8..2).prop_map(|bank| FetchEventKind::CacheHit { bank }),
        (0u8..2, 1u32..8).prop_map(|(bank, lines)| FetchEventKind::CacheMiss { bank, lines }),
        prop::sample::select(vec![
            FetchEventKind::AtbHit,
            FetchEventKind::PredCorrect,
            FetchEventKind::PredWrong,
            FetchEventKind::L0Hit,
            FetchEventKind::IntegrityFault,
        ]),
        (0u32..100).prop_map(|penalty| FetchEventKind::AtbMiss { penalty }),
        (1u32..64).prop_map(|ops| FetchEventKind::L0Fill { ops }),
        (1u32..500).prop_map(|cycles| FetchEventKind::DecodeStall { cycles }),
    ]
}

/// A detail string over printable ASCII — quotes, backslashes and
/// control-adjacent punctuation included, so escaping gets exercised.
fn detail_string() -> impl Strategy<Value = String> {
    let charset: Vec<char> = (' '..='~').collect();
    prop::collection::vec(prop::sample::select(charset), 0..24)
        .prop_map(|cs| cs.into_iter().collect())
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0u64..1 << 50, 0u64..1 << 50, any::<u32>(), fetch_kind()).prop_map(
            |(seq, cycle, block, kind)| TraceEvent::Fetch {
                seq,
                cycle,
                block,
                kind
            }
        ),
        (
            detail_string(),
            1u64..1 << 20,
            0u64..1 << 20,
            0u64..1 << 50,
            0u64..1_000_000u64
        )
            .prop_map(|(detail, id, parent, start_ns, dur_ns)| TraceEvent::Span {
                name: "compile",
                detail,
                id,
                parent,
                start_ns,
                dur_ns
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram accounting conserves samples: the bucket counts always
    /// sum to the total observation count, whatever the bounds.
    #[test]
    fn histogram_bucket_counts_sum_to_total(
        bounds in prop::collection::vec(0u64..1000, 1..8),
        samples in prop::collection::vec(0u64..2000, 0..200),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("stall_cycles", &bounds);
        for &s in &samples {
            h.observe(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    /// The Chrome trace-event exporter emits JSON that the in-crate
    /// parser accepts, with one entry per event, names matching the
    /// event kinds, details surviving escaping, and the metadata totals
    /// equal to an independent fold of the events.
    #[test]
    fn chrome_trace_json_round_trips(events in prop::collection::vec(trace_event(), 0..40)) {
        let mut counts = EventCounts::default();
        for e in &events {
            counts.add(e);
        }
        let meta = TraceMeta {
            workload: "prop".to_string(),
            scheme: "full".to_string(),
            counts,
            dropped: 0,
        };
        let json = chrome_trace_json(&events, &meta);
        let v = parse_json(&json).expect("exporter emits well-formed JSON");
        let arr = v
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        prop_assert_eq!(arr.len(), events.len());
        for (parsed, original) in arr.iter().zip(&events) {
            let name = parsed.get("name").and_then(JsonValue::as_str);
            let ph = parsed.get("ph").and_then(JsonValue::as_str);
            match original {
                TraceEvent::Fetch { seq, cycle, kind, .. } => {
                    prop_assert_eq!(ph, Some("i"));
                    prop_assert_eq!(name, Some(kind.name()));
                    prop_assert_eq!(
                        parsed.get("ts").and_then(JsonValue::as_f64),
                        Some(*cycle as f64)
                    );
                    let args = parsed.get("args").expect("fetch args");
                    prop_assert_eq!(
                        args.get("seq").and_then(JsonValue::as_f64),
                        Some(*seq as f64)
                    );
                }
                TraceEvent::Span { name: sname, detail, .. } => {
                    prop_assert_eq!(ph, Some("X"));
                    prop_assert_eq!(name, Some(*sname));
                    let args = parsed.get("args").expect("span args");
                    prop_assert_eq!(
                        args.get("detail").and_then(JsonValue::as_str),
                        Some(detail.as_str())
                    );
                }
            }
        }
        let parsed_counts = v
            .get("metadata")
            .and_then(|m| m.get("counts"))
            .expect("metadata counts");
        let num = |k: &str| parsed_counts.get(k).and_then(JsonValue::as_f64).unwrap_or(-1.0);
        prop_assert_eq!(num("cache_hit"), counts.cache_hits as f64);
        prop_assert_eq!(num("cache_miss"), counts.cache_misses as f64);
        prop_assert_eq!(num("atb_hit"), counts.atb_hits as f64);
        prop_assert_eq!(num("atb_miss"), counts.atb_misses as f64);
        prop_assert_eq!(num("pred_correct"), counts.pred_correct as f64);
        prop_assert_eq!(num("pred_wrong"), counts.pred_wrong as f64);
        prop_assert_eq!(num("l0_hit"), counts.buffer_hits as f64);
        prop_assert_eq!(num("l0_fill"), counts.buffer_misses as f64);
        prop_assert_eq!(num("decode_stall"), counts.decode_stalls as f64);
        prop_assert_eq!(num("integrity_fault"), counts.integrity_faults as f64);
        prop_assert_eq!(num("spans"), counts.spans as f64);
    }
}
