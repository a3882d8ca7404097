//! The host's speed, sampled around every timed call so that the call's
//! times can be scaled to a reference speed.
//!
//! On a shared host, other tenants load the same physical cores, and this
//! process's speed swings by up to half within a second and drifts over
//! minutes.  On a 2-vCPU VM, runs of one seed timed raw spread by 9–27%
//! (quartile distance over median), and sets of runs ten minutes apart
//! differed by up to a third.  So the benchmark times a fixed computation of
//! its own on [`THREADS`] threads at once right before and right after each
//! timed call, and multiplies the call's times by [`REFERENCE_S`] over the
//! mean of those two samples.  The computation uses no repository code, so
//! a change to the repository moves it only through the host.

use crate::run::THREADS;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the reference speed: about its median on the
/// 2-vCPU VM the bounds were set on.
pub const REFERENCE_S: f64 = 0.007;
/// 2 MiB per thread: more than a core's private caches.  A power of two,
/// so indices are masks.
const WORDS: usize = 1 << 18;
/// The branchy kernel's table: 128 KiB, like the simulator's hot state.
const TABLE: usize = 1 << 14;

/// Buffers for [`THREADS`] probe threads, kept between samples so that a
/// sample times no allocation or page fault, and every sample's time.
pub struct Probe {
    buffers: Vec<Vec<u64>>,
    times: Vec<f64>,
    /// The sample after the previous call, which is also the sample before
    /// the next one.
    last: Option<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            buffers: (0..THREADS).map(|_| vec![1; WORDS]).collect(),
            times: Vec::new(),
            last: None,
        }
    }

    /// Runs `call` between two samples and returns its result with the
    /// factor that scales times measured in it to the reference speed.
    /// Calls made one right after another share the sample between them.
    pub fn around<T>(&mut self, call: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(t) => t,
            None => self.sample(),
        };
        let out = call();
        let after = self.sample();
        self.last = Some(after);
        (out, REFERENCE_S * 2.0 / (before + after))
    }

    /// Times the computation once on every thread and keeps the mean of
    /// their times.
    fn sample(&mut self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .buffers
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| {
                    s.spawn(move || {
                        // Untimed: bring the buffer back into the caches
                        // the timed call just used, so that the sample does
                        // not time how much of it that call evicted.
                        for w in buf.iter_mut() {
                            *w = black_box(w.wrapping_add(1));
                        }
                        let start = Instant::now();
                        black_box(scatter(buf, i as u64));
                        black_box(branchy(buf, i as u64));
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("the probe does not panic"))
                .collect()
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.times.push(mean);
        mean
    }

    /// The median sample time.
    pub fn median_s(&self) -> Option<f64> {
        median(&self.times)
    }
}

/// Random read-modify-writes over the first [`WORDS`] words of `buf`:
/// bound by the latency of the shared caches.
fn scatter(buf: &mut [u64], seed: u64) -> u64 {
    let buf = &mut buf[..WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut acc = 0u64;
    for _ in 0..500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (WORDS - 1);
        buf[i] = buf[i].wrapping_add(x);
        acc = acc.wrapping_add(buf[i.wrapping_mul(7) & (WORDS - 1)]);
    }
    acc
}

/// A dispatch loop over the first [`TABLE`] words of `buf` whose branches
/// follow a random stream: bound by branch mispredictions and the core's
/// own caches, like a simulator's main loop.
fn branchy(buf: &mut [u64], seed: u64) -> u64 {
    let table = &mut buf[..TABLE];
    let mut x = seed | 1;
    let mut pc = 0usize;
    let mut acc = 0u64;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match (table[pc] ^ x) & 7 {
            0 => acc = acc.wrapping_add(x),
            1 => acc ^= x >> 3,
            2 => table[pc] = table[pc].wrapping_add(x),
            3 => pc = x as usize & (TABLE - 1),
            4 if acc & 1 == 0 => pc = (pc + 1) & (TABLE - 1),
            5 => acc = acc.rotate_left(5),
            6 => table[pc.wrapping_mul(3) & (TABLE - 1)] ^= acc,
            _ => acc = acc.wrapping_mul(0x9E37),
        }
        pc = (pc + 1 + (x as usize & 3)) & (TABLE - 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_are_scaled_by_the_samples_around_them() {
        let mut p = Probe::new();
        assert_eq!(p.median_s(), None);
        let (x, first) = p.around(|| 7);
        assert_eq!(x, 7);
        let (_, second) = p.around(|| ());
        // Two calls, three samples: the middle one is shared.
        assert_eq!(p.times.len(), 3);
        let [a, b, c] = p.times[..] else {
            unreachable!()
        };
        assert!(a > 0.0 && a < 10.0, "{a}");
        assert_eq!(first, REFERENCE_S * 2.0 / (a + b));
        assert_eq!(second, REFERENCE_S * 2.0 / (b + c));
        // The same result every time.
        let run = || {
            let mut buf = vec![1; WORDS];
            (scatter(&mut buf, 3), branchy(&mut buf, 3), buf)
        };
        assert_eq!(run(), run());
    }
}
