//! The machine-speed probe: a fixed amount of interpreter-like work that
//! calls nothing in the program, shared by `nproc` threads as a sweep
//! shares its batches.  The benchmark runs on a few cores of a shared host
//! whose speed other load moves by up to a half for minutes at a time, so
//! the end-to-end times of a run are scaled by how fast the probe ran in
//! the same run ([`scale`]).  The probe's code never changes with the
//! program, so a change to the program moves the scaled figures by the same
//! share as the raw ones.

use crate::stats::median;
use mbfi_core::report::Json;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The probe's typical time on the reference machine (2 vCPUs of a shared
/// Xeon host): scaled times read as seconds there.
pub const REFERENCE_S: f64 = 0.02;
/// Steps the probe interprets per chunk ...
const CHUNK_STEPS: u64 = 100_000;
/// ... and chunks per burst, shared by the threads.
const CHUNKS: u64 = 80;
/// Bursts before each untraced pass (round).
pub const PROBES_PER_PASS: usize = 2;
/// Words of each thread's memory (64 KiB).
const MEM_WORDS: usize = 8192;

/// One instruction of the probe's register machine: opcode and three
/// register operands.
type Op = (u8, u8, u8, u8);

/// The probe's program: arithmetic, loads and stores into a 64 KiB memory,
/// and a data-dependent branch, in a loop.
const PROGRAM: [Op; 12] = [
    (0, 1, 1, 2),
    (1, 3, 1, 4),
    (2, 5, 3, 0),
    (3, 6, 5, 0),
    (0, 7, 6, 1),
    (4, 7, 3, 0),
    (2, 8, 7, 2),
    (5, 8, 10, 0),
    (1, 2, 2, 9),
    (0, 4, 4, 8),
    (3, 9, 4, 0),
    (0, 9, 9, 11),
];

/// Interpret `steps` instructions of `PROGRAM` over `mem`; returns a
/// checksum so the work cannot be optimised away.
fn interpret(steps: u64, seed: u64, mem: &mut [u64]) -> u64 {
    let program = black_box(PROGRAM);
    let mut regs = [0u64; 16];
    regs[1] = seed | 1;
    regs[2] = 0x9E37_79B9_7F4A_7C15;
    regs[4] = 3;
    regs[11] = 1;
    let mut pc = 0usize;
    for _ in 0..steps {
        let (op, a, b, c) = program[pc];
        let (a, b, c) = (a as usize, b as usize, c as usize);
        pc += 1;
        match op {
            0 => regs[a] = regs[b].wrapping_add(regs[c]),
            1 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
            2 => regs[a] = regs[b] ^ (regs[b] >> 29) ^ regs[c],
            3 => regs[a] = mem[regs[b] as usize % mem.len()],
            4 => mem[regs[b] as usize % mem.len()] = regs[a],
            _ => {
                if regs[a] & 4 == 0 {
                    pc = b;
                }
            }
        }
        if pc == program.len() {
            pc = 0;
        }
    }
    regs.iter().fold(mem[7], |h, r| h.rotate_left(7) ^ r)
}

/// Seconds one burst of the probe takes on `threads` threads, which take
/// its chunks from a shared counter until none is left.
pub fn burst(threads: usize) -> f64 {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let next = &next;
            s.spawn(move || {
                let mut mem = vec![0u64; MEM_WORDS];
                let mut sum = 0u64;
                while next.fetch_add(1, Ordering::Relaxed) < CHUNKS {
                    sum ^= interpret(CHUNK_STEPS, t, &mut mem);
                }
                black_box(sum)
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// The factor that turns a run's times into reference seconds (and its
/// rates, divided by it, into reference rates): `REFERENCE_S` over the
/// median of the run's bursts, which are spread over the run as its passes
/// are, so the probe and the program are both taken at the machine's
/// typical speed in the run.
pub fn scale(bursts: &[f64]) -> f64 {
    REFERENCE_S / median(bursts)
}

/// Record the probe in a run's context: the scale and every burst.
pub fn context(ctx: &mut Json, scale: f64, bursts: &[f64]) {
    ctx.set("probe_scale", scale);
    ctx.set("probe_bursts_s", bursts.to_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic() {
        let run = |seed| interpret(10_000, seed, &mut vec![0u64; MEM_WORDS]);
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        assert!(burst(2) > 0.0);
    }

    #[test]
    fn scale_is_the_reference_over_the_median_burst() {
        let bursts = [0.05, 0.01, 0.04, 0.02, 0.06];
        assert!((scale(&bursts) - REFERENCE_S / 0.04).abs() < 1e-12);
    }
}
