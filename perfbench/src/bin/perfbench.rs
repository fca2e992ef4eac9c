//! End-to-end run: the system allocator, no allocation counting.

fn main() {
    std::process::exit(perfbench::main(false));
}
