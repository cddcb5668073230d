//! Open-loop request generation.
//!
//! Request `i` is due at `start + i × period` whether or not request
//! `i − 1` has finished, as with independent users. Latency runs from the
//! due time, so a stall also charges the wait it imposes on every request
//! queued behind it. The generator sleeps until a chosen margin before
//! each due time and spins the rest of the way, so timer slack and idle
//! wake-up do not land in the measured latency; how late it still ran is
//! reported separately.

use std::time::{Duration, Instant};

/// One request's timing, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// From the due time until the request started.
    pub queue_wait: f64,
    /// From the start until the request returned.
    pub service: f64,
    /// How late the generator itself was: the start minus the later of
    /// the due time and the previous request's end.
    pub generator_late: f64,
}

impl Sample {
    /// The timing of a request due at `due` that started at `started`
    /// and returned at `done`, after a previous request that returned at
    /// `previous_done`.
    pub fn from_instants(
        due: Instant,
        started: Instant,
        done: Instant,
        previous_done: Option<Instant>,
    ) -> Self {
        let ready = previous_done.map_or(due, |p| p.max(due));
        Sample {
            queue_wait: started.saturating_duration_since(due).as_secs_f64(),
            service: done.saturating_duration_since(started).as_secs_f64(),
            generator_late: started.saturating_duration_since(ready).as_secs_f64(),
        }
    }

    /// Latency from the due time.
    pub fn latency(&self) -> f64 {
        self.queue_wait + self.service
    }
}

/// Blocks until `due`: sleeps, then spins through the last `spin`.
pub fn wait_until(due: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issues `count` requests at a fixed `period` from `start`, spinning
/// through the last `spin` before each, calling `serve(i, due)` for
/// each, and returns their timings in issue order.
pub fn drive(
    start: Instant,
    period: Duration,
    spin: Duration,
    count: u64,
    mut serve: impl FnMut(u64, Instant),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(count as usize);
    let mut previous_done = None;
    for i in 0..count {
        let due = start + period.mul_f64(i as f64);
        wait_until(due, spin);
        let started = Instant::now();
        serve(i, due);
        let done = Instant::now();
        samples.push(Sample::from_instants(due, started, done, previous_done));
        previous_done = Some(done);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Due at 10 ms, started at 14 ms behind a request that ended at
        // 13 ms, returned at 15 ms.
        let s = Sample::from_instants(t0 + ms(10), t0 + ms(14), t0 + ms(15), Some(t0 + ms(13)));
        assert!((s.queue_wait - 0.004).abs() < 1e-9);
        assert!((s.service - 0.001).abs() < 1e-9);
        assert!((s.latency() - 0.005).abs() < 1e-9);
        assert!((s.generator_late - 0.001).abs() < 1e-9);
        // An early start (cannot happen in `drive`) counts no wait.
        let early = Sample::from_instants(t0 + ms(10), t0 + ms(9), t0 + ms(11), None);
        assert_eq!(early.queue_wait, 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let period = Duration::from_millis(2);
        let samples = drive(Instant::now(), period, period, 4, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        assert_eq!(samples.len(), 4);
        assert!(samples[0].service >= 0.010);
        // Request 1 was due at 2 ms but could only start after ~10 ms:
        // about 8 ms of queueing, none of it the generator's fault.
        assert!(samples[1].queue_wait >= 0.007, "{:?}", samples[1]);
        assert!(samples[1].latency() >= 0.007);
        assert!(samples[1].generator_late < 0.007);
        // Request 3 (due at 6 ms) still waited for the stall to clear.
        assert!(samples[3].queue_wait >= 0.003, "{:?}", samples[3]);
    }
}
