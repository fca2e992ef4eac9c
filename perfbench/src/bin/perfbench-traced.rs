//! Traced run: counts allocations and writes the span log.

#[global_allocator]
static ALLOC: perfbench::CountingAlloc = perfbench::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main(true));
}
