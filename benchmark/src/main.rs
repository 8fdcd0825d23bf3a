//! The repo benchmark binary; see `hlock_benchmark::cli` for the commands.

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: hlock_benchmark::alloc::Counting = hlock_benchmark::alloc::Counting;

fn main() -> ExitCode {
    hlock_benchmark::cli::main()
}
