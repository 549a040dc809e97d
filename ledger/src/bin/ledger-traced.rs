//! `ledger-traced`: the same program with the counting allocator installed,
//! so that a traced run can report exact allocations per command. It costs
//! two shared counter bumps per allocation, which is why the end-to-end
//! metrics come from the other binary.

use memorydb_metrics::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    memorydb_ledger::cli::main()
}
