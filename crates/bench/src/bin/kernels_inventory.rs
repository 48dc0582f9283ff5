//! Table 1: the evaluated kernels.

fn main() {
    println!("Table 1 — evaluated kernels (reconstructions; see the cme-kernels crate docs)\n");
    let rows: Vec<Vec<String>> = cme_kernels::all_kernels()
        .iter()
        .map(|k| {
            vec![
                k.name.to_string(),
                k.program.to_string(),
                k.depth.to_string(),
                if k.sizes.is_empty() {
                    format!("fixed n={}", k.default_size)
                } else {
                    format!("{:?}", k.sizes)
                },
                k.description.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        cme_bench::format_table(&["kernel", "program", "loops", "sizes", "description"], &rows)
    );
}
