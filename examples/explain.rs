//! The fusion why-not explainer.
//!
//! Builds a two-task window that splits on a read-write scratch argument
//! both tasks pass through an aliasing replicated partition, and shows
//! `Context::explain()`: the structured why-not report naming the split
//! boundary, the violated constraint and a suggestion that would admit
//! fusion. The report is observational, and the example asserts that the
//! flush then splits the window where the report said, and counts the split
//! by the constraint it names.
//!
//! Run with `cargo run --example explain`.

use diffuse::{Context, DiffuseConfig, TaskKind, TaskSignature};
use ir::Partition;
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;

const N: u64 = 64;

/// `out[i] = a[i] + b[i]`, plus a declared read-write scratch argument the
/// kernel body never names — the over-broad signature a cautious library
/// developer might write "just in case".
fn register_add_scratch(ctx: &Context) -> TaskKind {
    ctx.register_library("demo").register(
        "add_scratch",
        TaskSignature::new().read().read().write().read_write(),
        |_args| {
            let mut m = KernelModule::new(4);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("add_scratch", BufferId(2));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let s = b.add(x, y);
            b.store(BufferId(2), s);
            m.push_loop(b.finish());
            m
        },
    )
}

fn main() {
    println!("The fusion why-not explainer\n");
    let ctx = Context::new(DiffuseConfig::fused(MachineConfig::with_gpus(2)));
    let add = register_add_scratch(&ctx);
    let block = Partition::block(vec![N / 2]);

    let a = ctx.create_store(vec![N], "a");
    let b = ctx.create_store(vec![N], "b");
    let c = ctx.create_store(vec![N], "c");
    let d = ctx.create_store(vec![N], "d");
    let e = ctx.create_store(vec![N], "e");
    let scratch = ctx.create_store(vec![N], "scratch");
    ctx.fill(&a, 1.0);
    ctx.fill(&b, 2.0);
    ctx.fill(&d, 3.0);
    ctx.fill(&scratch, 0.0);

    // c = a + b; e = c + d, both dragging the shared scratch through
    // `Partition::Replicate`, which every launch point reads and writes.
    ctx.task(add)
        .read(&a, block.clone())
        .read(&b, block.clone())
        .write(&c, block.clone())
        .read_write(&scratch, Partition::Replicate)
        .launch();
    ctx.task(add)
        .read(&c, block.clone())
        .read(&d, block.clone())
        .write(&e, block)
        .read_write(&scratch, Partition::Replicate)
        .launch();

    // Purely observational: the window is neither flushed nor reordered.
    let report = ctx.explain();
    print!("{report}");
    ctx.flush();
    let value = ctx.read_store(&e).unwrap()[0];
    let stats = ctx.stats();
    println!(
        "launched {} tasks ({} fused), {} split(s) counted, e[0] = {value}",
        stats.tasks_launched, stats.fused_tasks, stats.rejections_unknown
    );
    assert_eq!(report.segments, vec![1, 1]);
    assert_eq!(report.boundaries.len(), 1);
    assert_eq!(stats.tasks_launched, report.segments.len() as u64);
    assert_eq!(stats.rejections_unknown, 1);
    assert_eq!(value, 6.0);
}
