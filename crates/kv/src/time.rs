//! Virtual time.
//!
//! The whole cluster simulation runs on a deterministic virtual clock in
//! microseconds. Nothing ever sleeps; latencies are *accounted*, which
//! makes experiments reproducible and lets a laptop sweep cluster sizes the
//! paper needed 150 EC2 instances for.

/// Virtual microseconds since simulation start.
pub type Micros = u64;

pub const MILLIS: Micros = 1_000;
pub const SECONDS: Micros = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(2 * SECONDS, 2_000_000);
        assert_eq!(3 * MILLIS, 3_000);
    }
}
