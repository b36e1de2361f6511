//! Content-addressed on-disk cache of experiment-point results.
//!
//! Layout: `results/cache/v<N>/<k0k1>/<key>.json`, where `key` is the
//! 32-hex-char stable digest computed by
//! [`super::PointJob::cache_key`] (which folds [`CACHE_VERSION`] into the
//! digest, so bumping the version orphans every old entry *and* moves the
//! directory). Values are the point's [`MetricsSummary`] serialized as the
//! flat JSON object [`MetricsSummary::to_json`] writes; floats round-trip
//! exactly because Rust's shortest-representation formatting is used on
//! both sides.
//!
//! Writes are atomic (temp file + rename), so concurrent workers — or
//! concurrent `repro` runs — can share one cache: both sides compute
//! identical bytes for identical keys, and a torn read is impossible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use repl_core::metrics::MetricsSummary;
use repl_sim::SimDuration;

/// Bump when an engine/workload change alters what a `(Params, seed)`
/// point computes; every cached result is invalidated at once.
pub const CACHE_VERSION: u32 = 5;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Handle to one cache directory.
#[derive(Clone, Debug)]
pub struct PointCache {
    dir: PathBuf,
}

impl PointCache {
    /// A cache rooted at `dir` (the `v<N>` component is appended).
    pub fn at(dir: PathBuf) -> Self {
        PointCache { dir: dir.join(format!("v{CACHE_VERSION}")) }
    }

    /// The directory entries live under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &str) -> PathBuf {
        // Two-char fan-out keeps directories small on paper-scale sweeps.
        let shard = &key[..2.min(key.len())];
        self.dir.join(shard).join(format!("{key}.json"))
    }

    /// Look `key` up; any read or parse failure is a miss.
    pub fn load(&self, key: &str) -> Option<MetricsSummary> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        parse_summary(&text)
    }

    /// Persist `summary` under `key`. Failures (read-only disk, races)
    /// are deliberately ignored: the cache is an accelerator, never a
    /// correctness dependency.
    pub fn store(&self, key: &str, summary: &MetricsSummary) {
        let path = self.path_of(key);
        let Some(parent) = path.parent() else { return };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        let tmp = parent.join(format!(
            ".{}.{}.{}.tmp",
            key,
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, summary.to_json()).is_ok() && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Parse the flat JSON object [`MetricsSummary::to_json`] writes.
/// Strict: every field must be present, unknown fields are rejected —
/// drift between writer and reader reads as a cache miss, never as a
/// wrong result.
pub(crate) fn parse_summary(json: &str) -> Option<MetricsSummary> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields: Vec<(&str, &str)> = Vec::with_capacity(14);
    for part in body.split(',') {
        let (k, v) = part.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        fields.push((k, v.trim()));
    }
    if fields.len() != 14 {
        return None;
    }
    let get = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
    let u64_of = |name: &str| get(name)?.parse::<u64>().ok();
    let f64_of = |name: &str| {
        let v = get(name)?;
        // The writer puts null for a non-finite float (JSON has no NaN).
        if v == "null" {
            Some(f64::NAN)
        } else {
            v.parse::<f64>().ok()
        }
    };
    Some(MetricsSummary {
        commits: u64_of("commits")?,
        aborts: u64_of("aborts")?,
        throughput_per_site: f64_of("throughput_per_site")?,
        abort_rate_pct: f64_of("abort_rate_pct")?,
        mean_response_ms: f64_of("mean_response_ms")?,
        mean_propagation_ms: f64_of("mean_propagation_ms")?,
        max_propagation_ms: f64_of("max_propagation_ms")?,
        incomplete_propagations: u64_of("incomplete_propagations")?,
        messages: u64_of("messages")?,
        virtual_duration: SimDuration::micros(u64_of("virtual_duration")?),
        crashes: u64_of("crashes")?,
        availability_pct: f64_of("availability_pct")?,
        mean_recovery_ms: f64_of("mean_recovery_ms")?,
        stall_ms: f64_of("stall_ms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSummary {
        MetricsSummary {
            commits: 1234,
            aborts: 56,
            throughput_per_site: 78.9012345678,
            abort_rate_pct: 4.3,
            mean_response_ms: 181.25,
            mean_propagation_ms: 301.5,
            max_propagation_ms: 999.875,
            incomplete_propagations: 0,
            messages: 424242,
            virtual_duration: SimDuration::micros(123_456_789),
            crashes: 3,
            availability_pct: 96.5,
            mean_recovery_ms: 41.75,
            stall_ms: 12.5,
        }
    }

    #[test]
    fn summary_round_trips_exactly_through_json() {
        let s = sample();
        let parsed = parse_summary(&s.to_json()).expect("parse");
        assert_eq!(parsed.commits, s.commits);
        assert_eq!(parsed.aborts, s.aborts);
        assert_eq!(parsed.throughput_per_site.to_bits(), s.throughput_per_site.to_bits());
        assert_eq!(parsed.abort_rate_pct.to_bits(), s.abort_rate_pct.to_bits());
        assert_eq!(parsed.mean_response_ms.to_bits(), s.mean_response_ms.to_bits());
        assert_eq!(parsed.mean_propagation_ms.to_bits(), s.mean_propagation_ms.to_bits());
        assert_eq!(parsed.max_propagation_ms.to_bits(), s.max_propagation_ms.to_bits());
        assert_eq!(parsed.incomplete_propagations, s.incomplete_propagations);
        assert_eq!(parsed.messages, s.messages);
        assert_eq!(parsed.virtual_duration, s.virtual_duration);
        assert_eq!(parsed.crashes, s.crashes);
        assert_eq!(parsed.availability_pct.to_bits(), s.availability_pct.to_bits());
        assert_eq!(parsed.mean_recovery_ms.to_bits(), s.mean_recovery_ms.to_bits());
        assert_eq!(parsed.stall_ms.to_bits(), s.stall_ms.to_bits());
    }

    #[test]
    fn malformed_or_partial_json_is_a_miss() {
        assert!(parse_summary("").is_none());
        assert!(parse_summary("{}").is_none());
        assert!(parse_summary("{\"commits\":1}").is_none());
        let mut json = sample().to_json();
        json.push('x');
        assert!(parse_summary(&json).is_none());
    }

    #[test]
    fn store_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir()
            .join(format!("repl-cache-test-{}", std::process::id()))
            .join("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::at(dir.clone());
        let key = "00ff00ff00ff00ff00ff00ff00ff00ff";
        assert!(cache.load(key).is_none());
        cache.store(key, &sample());
        let loaded = cache.load(key).expect("hit after store");
        assert_eq!(loaded.commits, sample().commits);
        assert_eq!(loaded.virtual_duration, sample().virtual_duration);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
