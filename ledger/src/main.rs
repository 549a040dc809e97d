//! `ledger`: the untraced binary. End-to-end metrics are only ever taken
//! from this one.

fn main() -> std::process::ExitCode {
    memorydb_ledger::cli::main()
}
