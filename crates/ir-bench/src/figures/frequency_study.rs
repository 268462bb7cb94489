//! §IV "Frequency": why the design ships at 125 MHz rather than the
//! 250 MHz F1 clock recipe.
//!
//! Paper anchors: at 250 MHz "the critical timing path is over 95% routing
//! delay resulting in violated paths within the AXI4 memory system";
//! even at 125 MHz over 90% of the critical path is routing delay — so
//! the paper adds combinational logic (the 32-lane calculator) instead of
//! chasing frequency.

use crate::{parallel_sweep, FigureContext, Table};
use ir_fpga::resources::{critical_path_ns, routing_fraction, timing_slack_ns};
use ir_fpga::ClockRecipe;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("Clock-recipe study: timing closure vs unit count\n");
    let mut table = Table::new(vec![
        "units",
        "critical path ns",
        "routing %",
        "slack @125 MHz ns",
        "slack @250 MHz ns",
        "250 MHz closes?",
    ]);
    let unit_counts = [4usize, 8, 16, 24, 32];
    let slacks = parallel_sweep(&unit_counts, ctx.threads, |&units| {
        (
            timing_slack_ns(ClockRecipe::Mhz125, units),
            timing_slack_ns(ClockRecipe::Mhz250, units),
        )
    });
    for (&units, &(slack_125, slack_250)) in unit_counts.iter().zip(&slacks) {
        table.row(vec![
            units.to_string(),
            format!("{:.2}", critical_path_ns(units)),
            format!("{:.1}%", routing_fraction(units) * 100.0),
            format!("{slack_125:+.2}"),
            format!("{slack_250:+.2}"),
            if slack_250 >= 0.0 {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table.emit(ctx, "frequency_study")?;

    println!("\npaper anchors: 32 units close timing at 125 MHz but not 250 MHz;");
    println!("routing delay dominates (>90% at 125 MHz, >95% of the failing 250 MHz path)");
    println!(
        "measured     : 32 units → path {:.2} ns ({:.0}% routing), slack {:+.2} ns @125 MHz, {:+.2} ns @250 MHz",
        critical_path_ns(32),
        routing_fraction(32) * 100.0,
        timing_slack_ns(ClockRecipe::Mhz125, 32),
        timing_slack_ns(ClockRecipe::Mhz250, 32)
    );
    println!(
        "\nconclusion (as in the paper): spend the headroom on combinational logic —\nthe 32-lane data-parallel calculator — rather than on clock frequency"
    );
    Ok(())
}
