//! Per-dictionary decoder memoization for the warm `simulate` path.
//!
//! `Scheme::compress` rebuilds the codec's LUT decode tables
//! from scratch on every call — fine for one-shot CLI runs,
//! wasteful for a daemon answering repeated `simulate` requests
//! against the same image. This cache keys codecs by
//! (scheme, program identity) and shares them across worker threads
//! (hence the `BlockCodec: Send + Sync` bound). Hits and misses are
//! published as `decode.codec_memo_hits` / `decode.codec_memo_misses`
//! so the win is observable from the metrics endpoint.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ccc_core::schemes::BlockCodec;
use ccc_telemetry::MetricsRegistry;

/// A memo of built codecs, keyed by a caller-supplied identity hash.
#[derive(Default)]
pub struct CodecCache {
    map: Mutex<HashMap<u128, Arc<dyn BlockCodec>>>,
}

impl CodecCache {
    /// An empty cache.
    pub fn new() -> CodecCache {
        CodecCache::default()
    }

    /// Number of memoized codecs.
    pub fn len(&self) -> usize {
        self.map.lock().expect("codec cache poisoned").len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the codec for `key`, building it with `build` on a miss.
    /// The lock is not held during `build`; if two threads race on the
    /// same fresh key, the first insert wins and the loser's build is
    /// discarded (the daemon's single-flight layer makes that race
    /// unreachable in practice).
    ///
    /// # Errors
    ///
    /// Whatever `build` fails with, on the miss path.
    pub fn get_or_build<E>(
        &self,
        registry: &MetricsRegistry,
        key: u128,
        build: impl FnOnce() -> Result<Arc<dyn BlockCodec>, E>,
    ) -> Result<Arc<dyn BlockCodec>, E> {
        if let Some(c) = self.map.lock().expect("codec cache poisoned").get(&key) {
            registry.counter("decode.codec_memo_hits").inc();
            return Ok(Arc::clone(c));
        }
        registry.counter("decode.codec_memo_misses").inc();
        let built = build()?;
        let mut map = self.map.lock().expect("codec cache poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_by_key_and_counts_hits() {
        let registry = MetricsRegistry::new();
        let cache = CodecCache::new();
        let w = tinker_workloads::by_name("li").expect("li exists");
        let program = lego::compile(w.source(), &lego::Options::default()).expect("compiles");
        let build = || -> Result<Arc<dyn BlockCodec>, ()> {
            let out = ccc_core::schemes::FULL
                .build()
                .compress(&program)
                .expect("compresses");
            Ok(Arc::from(out.codec))
        };
        let a = cache.get_or_build(&registry, 42, build).unwrap();
        let b = cache.get_or_build(&registry, 42, build).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the built codec");
        assert_eq!(cache.len(), 1);
        assert_eq!(registry.counter("decode.codec_memo_misses").get(), 1);
        assert_eq!(registry.counter("decode.codec_memo_hits").get(), 1);
        // A different key builds again.
        cache.get_or_build(&registry, 43, build).unwrap();
        assert_eq!(registry.counter("decode.codec_memo_misses").get(), 2);
        assert_eq!(cache.len(), 2);
    }
}
