//! Table I: the INDEL realignment accelerator's five-command ISA and the
//! RoCC instruction format, demonstrated by encoding the full command
//! sequence for the paper's Figure 4 example target.

use crate::{FigureContext, Table};
use ir_fpga::{IrCommand, IrUnit};
use ir_workloads::figure4_target;

fn describe(cmd: &IrCommand) -> String {
    match cmd {
        IrCommand::SetAddr { buffer, addr } => format!("ir_set_addr {:?} 0x{addr:x}", buffer),
        IrCommand::SetTarget { start_pos } => format!("ir_set_target {start_pos}"),
        IrCommand::SetSize { consensuses, reads } => format!("ir_set_size {consensuses} {reads}"),
        IrCommand::SetLen { consensus_id, len } => format!("ir_set_len {consensus_id} {len}"),
        IrCommand::Start { unit_id } => format!("ir_start {unit_id}"),
    }
}

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("Table I: IR accelerator instructions in the RoCC format\n");
    println!("RoCC word layout: funct[31:25] src2[24:20] src1[19:15] xd[14] xs1[13] xs2[12] rd[11:7] opcode[6:0]\n");

    let target = figure4_target();
    let cmds = IrUnit::command_sequence(&target, 0);

    let mut table = Table::new(vec![
        "command",
        "RoCC word",
        "funct",
        "rs1 value",
        "rs2 value",
    ]);
    for cmd in &cmds {
        let wire = cmd.encode();
        table.row(vec![
            describe(cmd),
            format!("0x{:08x}", wire.instruction.encode()),
            wire.instruction.funct().to_string(),
            format!("0x{:x}", wire.rs1_value),
            format!("0x{:x}", wire.rs2_value),
        ]);
    }
    table.emit(ctx, "table1_isa")?;

    println!(
        "\n{} commands configure and launch one {}-consensus target \
         (5 × set_addr + set_target + set_size + {} × set_len + start)",
        cmds.len(),
        target.num_consensuses(),
        target.num_consensuses()
    );
    // Round-trip check: every encoded word must decode to its source.
    for cmd in &cmds {
        assert_eq!(&IrCommand::decode(cmd.encode()).expect("decodes"), cmd);
    }
    println!(
        "round-trip: all {} wire commands decode back to their source ✓",
        cmds.len()
    );
    Ok(())
}
