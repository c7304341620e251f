//! Time periods (Equation 1 of the paper).
//!
//! The time dimension is unbounded, so every temporal index first buckets
//! timestamps into disjoint periods:
//! `Num(t) = floor((t - RefTime) / TimePeriodLen)` with `RefTime` =
//! 1970-01-01T00:00:00Z. GeoMesa offers day/week/month/year; the paper's
//! JUSTc variant "extend\[s\] a century of time period as GeoMesa does not
//! support it", so we provide it too.

/// The granularity of temporal bucketing.
///
/// Periods are fixed-length in milliseconds (months and years use the
/// 30-day / 365-day conventions — buckets only need to be disjoint and
/// monotone, not calendar-aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimePeriod {
    /// One hour.
    Hour,
    /// One day — the paper's default for Z2T/XZ2T (Table III).
    Day,
    /// One week — GeoMesa's Z3 default.
    Week,
    /// Thirty days.
    Month,
    /// 365 days — the longest period native GeoMesa offers.
    Year,
    /// 36 500 days — the extension used by the paper's JUSTc variant.
    Century,
}

impl TimePeriod {
    /// Length of the period in milliseconds.
    pub(crate) fn len_ms(self) -> i64 {
        const HOUR: i64 = 3_600_000;
        match self {
            TimePeriod::Hour => HOUR,
            TimePeriod::Day => 24 * HOUR,
            TimePeriod::Week => 7 * 24 * HOUR,
            TimePeriod::Month => 30 * 24 * HOUR,
            TimePeriod::Year => 365 * 24 * HOUR,
            TimePeriod::Century => 36_500 * 24 * HOUR,
        }
    }

    /// `Num(t)`: the period number containing timestamp `t` (ms since
    /// epoch). Uses floor division so pre-1970 timestamps land in negative
    /// periods rather than sharing period 0. Periods saturate at the `i32`
    /// extremes (timestamps beyond ±2 million years of hourly periods).
    pub fn period_of(self, t_ms: i64) -> i32 {
        t_ms.div_euclid(self.len_ms())
            .clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }

    /// Start (inclusive) of period `num` in ms.
    pub(crate) fn start_of(self, num: i32) -> i64 {
        i64::from(num) * self.len_ms()
    }

    /// End (exclusive) of period `num` in ms.
    pub(crate) fn end_of(self, num: i32) -> i64 {
        self.start_of(num) + self.len_ms()
    }

    /// All period numbers intersecting `[t_min, t_max]` (inclusive).
    pub fn periods_covering(self, t_min: i64, t_max: i64) -> std::ops::RangeInclusive<i32> {
        debug_assert!(t_min <= t_max);
        self.period_of(t_min)..=self.period_of(t_max)
    }

    /// Fraction of the period elapsed at `t`, in `[0, 1)` — the normalised
    /// time coordinate fed to Z3/XZ3 inside a period.
    pub(crate) fn fraction(self, t_ms: i64) -> f64 {
        let len = self.len_ms();
        let within = t_ms.rem_euclid(len);
        within as f64 / len as f64
    }

    /// Parses the period names accepted in `USERDATA` hints.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "hour" => TimePeriod::Hour,
            "day" => TimePeriod::Day,
            "week" => TimePeriod::Week,
            "month" => TimePeriod::Month,
            "year" => TimePeriod::Year,
            "century" => TimePeriod::Century,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TimePeriod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimePeriod::Hour => "hour",
            TimePeriod::Day => "day",
            TimePeriod::Week => "week",
            TimePeriod::Month => "month",
            TimePeriod::Year => "year",
            TimePeriod::Century => "century",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY_MS: i64 = 86_400_000;

    #[test]
    fn period_numbering() {
        assert_eq!(TimePeriod::Day.period_of(0), 0);
        assert_eq!(TimePeriod::Day.period_of(DAY_MS - 1), 0);
        assert_eq!(TimePeriod::Day.period_of(DAY_MS), 1);
        assert_eq!(TimePeriod::Day.period_of(-1), -1);
    }

    #[test]
    fn bounds_are_consistent() {
        for p in [
            TimePeriod::Hour,
            TimePeriod::Day,
            TimePeriod::Week,
            TimePeriod::Month,
            TimePeriod::Year,
            TimePeriod::Century,
        ] {
            let t = 1_600_000_000_123i64;
            let num = p.period_of(t);
            assert!(p.start_of(num) <= t && t < p.end_of(num), "{p}");
            assert_eq!(p.end_of(num), p.start_of(num + 1));
        }
    }

    #[test]
    fn covering_range() {
        let r = TimePeriod::Day.periods_covering(0, 3 * DAY_MS);
        assert_eq!(r, 0..=3);
        let single = TimePeriod::Day.periods_covering(100, 200);
        assert_eq!(single, 0..=0);
    }

    #[test]
    fn fraction_within_period() {
        assert_eq!(TimePeriod::Day.fraction(0), 0.0);
        assert!((TimePeriod::Day.fraction(DAY_MS / 2) - 0.5).abs() < 1e-12);
        assert!(TimePeriod::Day.fraction(DAY_MS - 1) < 1.0);
        // Negative timestamps still map to [0, 1).
        let f = TimePeriod::Day.fraction(-DAY_MS / 4);
        assert!((f - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ordering_of_lengths() {
        assert!(TimePeriod::Hour.len_ms() < TimePeriod::Day.len_ms());
        assert!(TimePeriod::Year.len_ms() < TimePeriod::Century.len_ms());
    }

    #[test]
    fn parse_names() {
        assert_eq!(TimePeriod::parse("Day"), Some(TimePeriod::Day));
        assert_eq!(TimePeriod::parse("CENTURY"), Some(TimePeriod::Century));
        assert_eq!(TimePeriod::parse("fortnight"), None);
    }
}
