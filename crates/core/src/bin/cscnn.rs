//! `cscnn` — command-line front end for the CSCNN reproduction.
//!
//! ```text
//! cscnn models                         list benchmark networks
//! cscnn compress <model>               compression-scheme comparison
//! cscnn simulate <model> [options]     run the accelerator comparison
//!     --accelerator <name>             one accelerator only (default: all)
//!     --seed <n>                       workload seed (default 42)
//!     --config <path>                  ArchConfig JSON override
//!     --json <path> | --csv <path>     export per-layer results
//!     --trace <path>                   Chrome-tracing timeline export
//! cscnn area                           Table V PE area model
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cscnn::models::{catalog, CompressionScheme, ModelCompression};
use cscnn::sim::area::PeArea;
use cscnn::sim::{baselines, export, trace, ArchConfig, CartesianAccelerator, Runner};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => cmd_models(),
        Some("compress") => cmd_compress(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("area") => cmd_area(),
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("cscnn — CSCNN (HPCA 2021) reproduction CLI\n");
    println!("usage:");
    println!("  cscnn models");
    println!("  cscnn compress <model>");
    println!("  cscnn simulate <model> [--accelerator NAME] [--seed N] [--json PATH] [--csv PATH]");
    println!("  cscnn area");
    println!("\nmodels: lenet5, convnet, alexnet, vgg16, vgg16-cifar, resnet-18/50/152,");
    println!("        resnext-101, wideresnet, squeezenet, shufflenet-v2, efficientnet-b7,");
    println!("        googlenet, mobilenet-v1");
}

fn cmd_models() -> ExitCode {
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>10}",
        "model", "layers", "GMACs", "Mweights", "CSCNN red."
    );
    let mut models = catalog::evaluation_suite();
    models.push(catalog::vgg16_cifar());
    models.push(catalog::wide_resnet28_10());
    models.push(catalog::squeezenet());
    models.push(catalog::resnext101());
    models.push(catalog::googlenet());
    models.push(catalog::mobilenet_v1());
    for m in models {
        let red = ModelCompression::new(m.clone(), CompressionScheme::Cscnn).reduction();
        println!(
            "{:<16} {:>8} {:>12.2} {:>12.1} {:>9.2}x",
            m.name,
            m.layers.len(),
            m.dense_mults() as f64 / 1e9,
            m.weights() as f64 / 1e6,
            red
        );
    }
    ExitCode::SUCCESS
}

fn cmd_compress(args: &[String]) -> ExitCode {
    let Some(model) = args.first().and_then(|n| catalog::by_name(n)) else {
        eprintln!("usage: cscnn compress <model>");
        return ExitCode::FAILURE;
    };
    println!(
        "{}: {} layers, {:.2} GMACs dense\n",
        model.name,
        model.layers.len(),
        model.dense_mults() as f64 / 1e9
    );
    println!(
        "{:<18} {:>10} {:>12}",
        "scheme", "mult red.", "weight comp."
    );
    for scheme in [
        CompressionScheme::Dense,
        CompressionScheme::DeepCompression,
        CompressionScheme::Cscnn,
        CompressionScheme::CscnnPruning,
    ] {
        let mc = ModelCompression::new(model.clone(), scheme);
        println!(
            "{:<18} {:>9.2}x {:>11.2}x",
            scheme.label(),
            mc.reduction(),
            mc.weight_compression()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let Some(model) = args.first().and_then(|n| catalog::by_name(n)) else {
        eprintln!("usage: cscnn simulate <model> [--accelerator NAME] [--seed N] [--json PATH]");
        return ExitCode::FAILURE;
    };
    let mut seed = 42u64;
    let mut only: Option<String> = None;
    let mut json: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut config: Option<ArchConfig> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed needs a number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--accelerator" => {
                i += 1;
                only = args.get(i).cloned();
                if only.is_none() {
                    eprintln!("--accelerator needs a name");
                    return ExitCode::FAILURE;
                }
            }
            flag @ ("--json" | "--csv" | "--trace") => {
                i += 1;
                let Some(path) = args.get(i).map(PathBuf::from) else {
                    eprintln!("{flag} needs a path");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--json" => json = Some(path),
                    "--csv" => csv = Some(path),
                    _ => trace_path = Some(path),
                }
            }
            "--config" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--config needs a path");
                    return ExitCode::FAILURE;
                };
                config = match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|s| cscnn_json::from_str::<ArchConfig>(&s).map_err(|e| e.to_string()))
                    .and_then(|c| c.validate().map(|()| c).map_err(|e| e.to_string()))
                {
                    Ok(c) => Some(c),
                    Err(e) => {
                        eprintln!("failed to load config {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => {
                eprintln!("unknown option '{other}'");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let mut accs = baselines::evaluation_accelerators();
    if let Some(name) = &only {
        let known = accs.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ");
        accs.retain(|a| a.name().eq_ignore_ascii_case(name));
        if accs.is_empty() {
            eprintln!("unknown accelerator '{name}'; choose from: {known}");
            return ExitCode::FAILURE;
        }
    }
    // An explicit --config overrides the sizing of the Cartesian machines;
    // the analytic baselines keep their own models.
    if let Some(cfg) = &config {
        for acc in &mut accs {
            *acc = match acc.name() {
                "CSCNN" => Box::new(CartesianAccelerator::cscnn().with_config(cfg.clone())),
                "SCNN" => Box::new(CartesianAccelerator::scnn().with_config(cfg.clone())),
                other => {
                    eprintln!("--config applies to SCNN/CSCNN; {other} uses its defaults");
                    continue;
                }
            };
        }
    }
    let runs = match Runner::new(seed).run_suite(&accs, std::slice::from_ref(&model)) {
        Ok(mut rows) => rows.remove(0),
        Err(e) => {
            eprintln!("failed to simulate {}: {e}", model.name);
            return ExitCode::FAILURE;
        }
    };
    println!("simulating {} (seed {seed})\n", model.name);
    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>12}",
        "accelerator", "time (ms)", "cycles", "energy (uJ)", "EDP (nJ*s)"
    );
    for stats in &runs {
        println!(
            "{:<14} {:>12.3} {:>14} {:>14.1} {:>12.3}",
            stats.accelerator,
            stats.total_time_s() * 1e3,
            stats.total_cycles(),
            stats.total_on_chip_pj() * 1e-6,
            stats.edp() * 1e9
        );
    }
    if let Some(path) = json {
        match export::write_json(&runs, &path) {
            Ok(()) => println!("\nJSON written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = csv {
        match export::write_csv(&runs, &path) {
            Ok(()) => println!("CSV written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = trace_path {
        match trace::write_chrome_trace(&runs, &path) {
            Ok(()) => println!(
                "Chrome trace written to {} (open in chrome://tracing)",
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_area() -> ExitCode {
    let scnn = PeArea::scnn(&ArchConfig::paper_scnn());
    let cscnn = PeArea::cscnn(&ArchConfig::paper());
    println!("{:<10} {:>10} {:>10}", "component", "SCNN", "CSCNN");
    for (name, s, c) in [
        ("MulArray", scnn.mul_array, cscnn.mul_array),
        ("IB+OB", scnn.ib_ob, cscnn.ib_ob),
        ("WB", scnn.wb, cscnn.wb),
        ("AB", scnn.ab, cscnn.ab),
        ("Scatter", scnn.scatter, cscnn.scatter),
        ("CCU", scnn.ccu, cscnn.ccu),
        ("PPU", scnn.ppu, cscnn.ppu),
        ("Total", scnn.total(), cscnn.total()),
    ] {
        println!("{name:<10} {s:>9.2}  {c:>9.2}");
    }
    println!(
        "\noverhead: {:.1} % (paper: 17.7 %)",
        100.0 * (cscnn.total() / scnn.total() - 1.0)
    );
    ExitCode::SUCCESS
}
