//! Open-loop accounting shared by the two serving workloads: requests are
//! offered on a schedule whether or not the system keeps up, every latency
//! is timed from the instant the request was *due* (so a stalled engine
//! cannot hide the wait it imposes on later arrivals), and a refused or
//! lost request counts against goodput.

use crate::stats::percentile_sorted;

/// One rung of a rate ladder, replayed to completion.
#[derive(Clone, Debug, Default)]
pub struct Rung {
    /// Offered rate, requests per simulated second.
    pub rate: f64,
    pub offered: u64,
    pub served: u64,
    /// Refused at admission (`Overloaded`).
    pub shed: u64,
    /// Accepted, then dropped (dispatch deadline or eviction).
    pub dropped: u64,
    /// Any other error from the system under test.
    pub errors: u64,
    /// Completion − due time of every served request, µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Logical time from the last due arrival to the last completion: a
    /// queue that kept up drains within one latency limit.
    pub drain_tail_us: u64,
    /// Logical time the system spent executing batches.
    pub busy_us: u64,
    /// First due arrival to last completion.
    pub makespan_us: u64,
}

impl Rung {
    pub fn percentile(&self, pct: f64) -> f64 {
        percentile_sorted(&self.latencies_us, pct)
    }

    /// Every offered request is accounted for exactly once.
    pub fn conserves(&self) -> bool {
        self.served + self.shed + self.dropped + self.errors == self.offered
            && self.latencies_us.len() as u64 == self.served
    }

    /// Requests that did not come back served.
    pub fn lost(&self) -> u64 {
        self.offered - self.served
    }

    /// p99 within `limit_us`, nothing refused or dropped, and the backlog
    /// left at the end of the arrivals drains within one limit.
    pub fn meets(&self, limit_us: f64) -> bool {
        self.lost() == 0
            && self.served > 0
            && self.percentile(99.0) <= limit_us
            && self.drain_tail_us as f64 <= limit_us
    }

    /// One report line for this rung.
    pub fn describe(&self, limit_us: f64) -> String {
        format!(
            "rung {:>8} op/s_sim: offered {} served {} shed {} dropped {} | p50 {} p99 {} p99.9 {} us_sim | drain tail {} us_sim | busy {:.3} | {}",
            self.rate,
            self.offered,
            self.served,
            self.shed,
            self.dropped,
            self.percentile(50.0),
            self.percentile(99.0),
            self.percentile(99.9),
            self.drain_tail_us,
            self.busy_us as f64 / self.makespan_us.max(1) as f64,
            if self.meets(limit_us) { "meets the limit" } else { "misses the limit" },
        )
    }

    /// Served within the limit ÷ offered.
    pub fn goodput(&self, limit_us: f64) -> f64 {
        let within = self.latencies_us.partition_point(|&l| l <= limit_us);
        within as f64 / self.offered as f64
    }
}

/// Highest rung that meets the limit, with every rung below it meeting
/// it too (a rate is only sustainable if the lower ones are).
pub fn max_rate_under_slo(ladder: &[Rung], limit_us: f64) -> f64 {
    ladder
        .iter()
        .take_while(|r| r.meets(limit_us))
        .last()
        .map_or(0.0, |r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, lat: &[f64], shed: u64) -> Rung {
        Rung {
            rate,
            offered: lat.len() as u64 + shed,
            served: lat.len() as u64,
            shed,
            latencies_us: lat.to_vec(),
            ..Rung::default()
        }
    }

    #[test]
    fn a_shed_request_fails_the_rung_and_counts_against_goodput() {
        let ok = rung(4.0, &[10.0, 20.0, 30.0, 40.0], 0);
        let shedding = rung(8.0, &[10.0, 20.0, 30.0], 1);
        assert!(ok.conserves() && shedding.conserves());
        assert!(ok.meets(50.0) && !shedding.meets(50.0));
        assert!(!ok.meets(30.0), "p99 over the limit");
        assert_eq!(shedding.goodput(25.0), 0.5);
        assert_eq!(
            max_rate_under_slo(&[ok.clone(), shedding.clone()], 50.0),
            4.0
        );
        assert_eq!(max_rate_under_slo(&[shedding, ok], 50.0), 0.0);
    }
}
