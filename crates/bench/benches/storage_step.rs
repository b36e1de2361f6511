//! Criterion microbenches for the storage engine's transaction step:
//! 2PL locked reads vs lock-free MVCC snapshot reads, read-write mixes,
//! and the group-commit pipeline at batch sizes 1/8/64.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use repl_storage::{CommitPipeline, Store, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

const ITEMS: u32 = 200;
const OPS: u32 = 8;

/// A store whose every item has been written once, as any item of a
/// running site has: reads return a committed version, not the
/// pre-transactional initial value.
fn store() -> Store {
    let mut s: Store = (0..ITEMS).map(|i| (ItemId(i), Value::Initial)).collect();
    let t = s.begin();
    for i in 0..ITEMS {
        s.write(t, ItemId(i), Value::int(i64::from(i)), gid(0)).unwrap();
    }
    s.commit(t).unwrap();
    s
}

fn gid(seq: u64) -> GlobalTxnId {
    GlobalTxnId::new(SiteId(0), seq)
}

/// Read-only transactions, 2PL path: S-lock each item, commit releases.
fn bench_read_2pl(c: &mut Criterion) {
    let mut s = store();
    c.bench_function("storage_step/read_only_2pl_8ops", |b| {
        b.iter(|| {
            let t = s.begin();
            for i in 0..OPS {
                s.read(t, ItemId(i * 7 % ITEMS)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
}

/// The same read-only transactions on the MVCC path: snapshot in, 8
/// cell probes, snapshot out — no lock manager anywhere.
fn bench_read_mvcc(c: &mut Criterion) {
    let mut s = store();
    c.bench_function("storage_step/read_only_mvcc_8ops", |b| {
        b.iter(|| {
            let snap = s.begin_snapshot();
            let mut acc = 0u64;
            for i in 0..OPS {
                acc +=
                    s.read_snapshot(snap, ItemId(i * 7 % ITEMS)).unwrap().writer.is_some() as u64;
            }
            s.end_snapshot(snap);
            acc
        })
    });
}

/// A mixed transaction (half reads, half writes) on the 2PL path — the
/// write stream both protocols share.
fn bench_mixed_2pl(c: &mut Criterion) {
    let mut s = store();
    let mut seq = 0u64;
    c.bench_function("storage_step/mixed_2pl_8ops", |b| {
        b.iter(|| {
            seq += 1;
            let t = s.begin();
            for i in 0..OPS / 2 {
                s.read(t, ItemId((i * 7 + 1) % ITEMS)).unwrap();
            }
            for i in 0..OPS / 2 {
                s.write(t, ItemId(i * 13 % ITEMS), Value::int(seq as i64), gid(seq)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
}

/// MVCC reads through an old snapshot racing a committed-write
/// history: eight open snapshots keep eight superseded versions per
/// item, and the oldest reads each item through a cell probe that finds
/// a newer commit plus a binary search of the item's side chain.
fn bench_read_mvcc_versioned(c: &mut Criterion) {
    let mut s = store();
    // Lay down 8 more committed versions of every item with a snapshot
    // pinned at each depth, so the side chains stay populated.
    let mut pins = Vec::new();
    for round in 0..8u64 {
        pins.push(s.begin_snapshot());
        let t = s.begin();
        for i in 0..ITEMS {
            s.write(t, ItemId(i), Value::int(round as i64), gid(round + 1)).unwrap();
        }
        s.commit(t).unwrap();
    }
    let oldest = pins[0];
    c.bench_function("storage_step/read_mvcc_8deep_chains", |b| {
        b.iter(|| {
            // A reader comes and goes beside the pinned ones, as in the
            // other read benches; the reads go through the oldest.
            let snap = s.begin_snapshot();
            let mut acc = 0u64;
            for i in 0..OPS {
                acc +=
                    s.read_snapshot(oldest, ItemId(i * 7 % ITEMS)).unwrap().writer.is_some() as u64;
            }
            s.end_snapshot(snap);
            acc
        })
    });
    for p in pins {
        s.end_snapshot(p);
    }
}

/// The group-commit pipeline: 64 commits through batch sizes 1/8/64,
/// measuring the enqueue + flush path into the WAL.
fn bench_commit_pipeline(c: &mut Criterion) {
    for batch in [1usize, 8, 64] {
        c.bench_function(&format!("storage_step/group_commit_batch{batch}"), |b| {
            b.iter_batched(
                || (CommitPipeline::new(batch), WriteAheadLog::new()),
                |(mut pipe, mut wal)| {
                    for seq in 0..64u64 {
                        let writes = vec![(ItemId((seq % 200) as u32), Value::int(seq as i64))];
                        if pipe.enqueue(gid(seq + 1), writes) {
                            pipe.flush(&mut wal);
                        }
                    }
                    pipe.flush(&mut wal);
                    wal.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_read_2pl, bench_read_mvcc, bench_mixed_2pl, bench_read_mvcc_versioned,
        bench_commit_pipeline
}
criterion_main!(benches);
