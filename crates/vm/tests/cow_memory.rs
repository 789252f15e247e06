//! Property test of the chunked copy-on-write memory: a subject `Memory`
//! whose snapshot/restore traffic runs through the CoW fast path is driven
//! through long random interleavings of allocation, boundary-straddling
//! loads/stores, bulk ops, traps, snapshots and restores — in lockstep with
//! an oracle `Memory` that restores through the deep-copy reference
//! ([`Memory::restore_full_from`]).  After every step the two must agree byte for byte on every
//! observable: load results, bulk reads, traps, tops and mapped sizes.
//!
//! The oracle is honest because the deep-copy path never shares a chunk, so
//! any aliasing bug in the CoW path (a write leaking into a snapshot, a
//! restore missing a dirty chunk, stale bytes after a stack pop/regrow)
//! diverges the comparison.

use mbfi_ir::{Global, Type};
use mbfi_vm::{Memory, MemoryLayout, Trap, CHUNK_BYTES};

/// Deterministic xorshift64* so the crate needs no RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const TYPES: [Type; 4] = [Type::I8, Type::I16, Type::I32, Type::I64];

fn fresh_pair() -> (Memory, Memory) {
    // Globals sized to straddle chunk boundaries: one spans 2.5 chunks, one
    // is a small odd-sized tail right after it.
    let globals = [
        Global::zeroed("big", (CHUNK_BYTES * 5 / 2) as u64),
        Global::zeroed("tail", 100),
    ];
    let layout = MemoryLayout::default();
    let subject = Memory::for_globals(&globals, layout);
    let oracle = subject.clone();
    (subject, oracle)
}

/// A random address, biased to mapped regions and chunk boundaries but with
/// a tail of wild (trapping) addresses.
fn pick_addr(rng: &mut Rng, mem: &Memory) -> u64 {
    let layout = mem.layout();
    fn span(rng: &mut Rng, base: u64, len: u64) -> u64 {
        base + rng.below(len + 64).saturating_sub(32)
    }
    match rng.below(10) {
        0..=3 => span(rng, layout.globals_base, (CHUNK_BYTES * 5 / 2) as u64 + 100),
        4..=6 => span(rng, layout.heap_base, mem.heap_top().max(1)),
        7..=8 => span(rng, layout.stack_base, mem.stack_top().max(1)),
        // Wild: unmapped gaps and the far end of the address space.
        _ => rng.next() % (layout.stack_base + layout.stack_size + 4096),
    }
}

/// Compare every observable of the two memories at a sample of addresses.
fn assert_observably_equal(rng: &mut Rng, subject: &Memory, oracle: &Memory, step: usize) {
    assert_eq!(
        subject.heap_top(),
        oracle.heap_top(),
        "step {step}: heap_top"
    );
    assert_eq!(
        subject.stack_top(),
        oracle.stack_top(),
        "step {step}: stack_top"
    );
    assert_eq!(
        subject.data_bytes(),
        oracle.data_bytes(),
        "step {step}: data_bytes"
    );
    for _ in 0..24 {
        let addr = pick_addr(rng, subject);
        let ty = TYPES[rng.below(TYPES.len() as u64) as usize];
        assert_eq!(
            subject.load(ty, addr),
            oracle.load(ty, addr),
            "step {step}: load {ty:?} @ {addr:#x}"
        );
        let len = rng.below(3 * CHUNK_BYTES as u64);
        assert_eq!(
            subject.read_bytes(addr, len),
            oracle.read_bytes(addr, len),
            "step {step}: read_bytes @ {addr:#x} len {len}"
        );
    }
}

#[test]
fn random_interleavings_match_a_deep_copy_oracle() {
    let mut rng = Rng(0xC0_57A7E);
    let (mut subject, mut oracle) = fresh_pair();
    // Parallel snapshot stacks: subject images restore via CoW, oracle
    // images via deep copies.
    let mut snapshots: Vec<(Memory, Memory)> = Vec::new();
    let mut marks: Vec<u64> = vec![0];

    for step in 0..4000 {
        match rng.below(100) {
            // Allocation: grows the heap, occasionally past chunk boundaries.
            0..=9 => {
                let size = rng.below(3 * CHUNK_BYTES as u64);
                let a = subject.heap_alloc(size);
                let b = oracle.heap_alloc(size);
                assert_eq!(a, b, "step {step}: heap_alloc({size})");
            }
            10..=14 => {
                let addr = pick_addr(&mut rng, &subject);
                assert_eq!(
                    subject.heap_free(addr),
                    oracle.heap_free(addr),
                    "step {step}: heap_free @ {addr:#x}"
                );
            }
            // Stack discipline: push frames, pop back to a random mark, and
            // regrow — the stale-byte re-zeroing path.
            15..=24 => {
                marks.push(subject.stack_mark());
                let size = rng.below(2 * CHUNK_BYTES as u64);
                let a = subject.stack_push(size);
                let b = oracle.stack_push(size);
                assert_eq!(a, b, "step {step}: stack_push({size})");
            }
            25..=31 => {
                let idx = rng.below(marks.len() as u64) as usize;
                let mark = marks[idx];
                marks.truncate((idx + 1).max(1));
                subject.stack_pop_to(mark);
                oracle.stack_pop_to(mark);
            }
            // Scalar stores, sometimes misaligned or unmapped (traps).
            32..=51 => {
                let addr = pick_addr(&mut rng, &subject);
                let ty = TYPES[rng.below(TYPES.len() as u64) as usize];
                let bits = rng.next();
                assert_eq!(
                    subject.store(ty, addr, bits),
                    oracle.store(ty, addr, bits),
                    "step {step}: store {ty:?} @ {addr:#x}"
                );
            }
            // Bulk writes/fills/copies straddling chunk boundaries.
            52..=63 => {
                let addr = pick_addr(&mut rng, &subject);
                let len = rng.below(3 * CHUNK_BYTES as u64) as usize;
                let bytes: Vec<u8> = (0..len)
                    .map(|i| (rng.0 as u8).wrapping_add(i as u8))
                    .collect();
                assert_eq!(
                    subject.write_bytes(addr, &bytes),
                    oracle.write_bytes(addr, &bytes),
                    "step {step}: write_bytes @ {addr:#x} len {len}"
                );
            }
            64..=71 => {
                let addr = pick_addr(&mut rng, &subject);
                let len = rng.below(3 * CHUNK_BYTES as u64);
                let value = rng.next() as u8;
                assert_eq!(
                    subject.fill(addr, value, len),
                    oracle.fill(addr, value, len),
                    "step {step}: fill @ {addr:#x} len {len}"
                );
            }
            72..=79 => {
                let dst = pick_addr(&mut rng, &subject);
                let src = pick_addr(&mut rng, &subject);
                let len = rng.below(2 * CHUNK_BYTES as u64);
                assert_eq!(
                    subject.copy(dst, src, len),
                    oracle.copy(dst, src, len),
                    "step {step}: copy {src:#x} -> {dst:#x} len {len}"
                );
            }
            // Snapshot both sides.
            80..=89 => {
                if snapshots.len() < 8 {
                    snapshots.push((subject.snapshot_image(), oracle.snapshot_image()));
                }
            }
            // Restore a random saved pair: CoW on the subject, deep copy on
            // the oracle.
            _ => {
                if let Some(i) =
                    (!snapshots.is_empty()).then(|| rng.below(snapshots.len() as u64) as usize)
                {
                    let (img_s, img_o) = &snapshots[i];
                    subject.restore_from(img_s);
                    oracle.restore_full_from(img_o);
                    marks.retain(|&m| m <= subject.stack_top());
                    if marks.is_empty() {
                        marks.push(0);
                    }
                    // Restores must never be observable as CoW activity on
                    // the deep-copy side.
                    assert_eq!(oracle.cow_stats().restore_bytes_saved, 0, "step {step}");
                }
            }
        }
        if step % 7 == 0 {
            assert_observably_equal(&mut rng, &subject, &oracle, step);
        }
    }
    assert_observably_equal(&mut rng, &subject, &oracle, 4000);
    assert!(
        !snapshots.is_empty(),
        "the interleaving never snapshotted — widen the op mix"
    );
    // The subject must actually have exercised the CoW machinery.
    let stats = subject.cow_stats();
    assert!(
        stats.restore_bytes_saved > 0 && stats.restore_chunks_repointed > 0,
        "subject never took a CoW restore: {stats:?}"
    );
}

/// The trap taxonomy must be identical on both paths even when the subject's
/// chunks are shared with live snapshots (a trapping access must not CoW).
#[test]
fn traps_are_identical_and_do_not_cow() {
    let (mut subject, mut oracle) = fresh_pair();
    let image = subject.snapshot_image();
    subject.restore_from(&image); // all chunks now shared
    let before = subject.cow_stats().cow_chunks_copied;
    let wild = 0xDEAD_BEEF_0000;
    assert_eq!(
        subject.store(Type::I64, wild, 1),
        oracle.store(Type::I64, wild, 1)
    );
    assert!(matches!(
        subject.store(Type::I64, wild, 1),
        Err(Trap::Segfault { .. })
    ));
    let misaligned = subject.layout().globals_base + 1;
    assert_eq!(
        subject.store(Type::I32, misaligned, 1),
        oracle.store(Type::I32, misaligned, 1)
    );
    assert!(subject.store(Type::I32, misaligned, 1).is_err());
    assert_eq!(
        subject.cow_stats().cow_chunks_copied,
        before,
        "trapping stores must not copy chunks"
    );
}
