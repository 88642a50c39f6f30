//! `gate <section> <paths…> [--update]`: every regression gate over the
//! committed baselines; see [`jrpm_bench::gate`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    jrpm_bench::gate::main(&args)
}
