//! Scenario extension: a scripted mid-stream path failure — DMP vs static
//! vs single-path resilience.
fn main() {
    dmp_bench::target::run_standalone(&[("ext_failover", dmp_bench::scenarios::ext_failover)]);
}
