//! # pnet-bench
//!
//! The experiment harness: one [`Experiment`] per table/figure of the paper
//! (see DESIGN.md for the index), all run through one dispatcher reached as
//! `pnet exp <name> [flags]`. An experiment is data — its name, what it
//! reproduces, the flags it declares with their defaults — plus one function
//! that writes its report to the `Write` it is handed, so a run can be
//! captured and compared with `results/exp_<name>.txt`. The rest of the
//! library is the scaffolding experiments share: argument parsing against
//! the declared flags, table/CSV output, and the comparison-network setups.
//! Performance is measured elsewhere, by the standalone package in
//! `benchmark/`.

pub mod args;
pub mod report;
pub mod setups;

/// One module per experiment, each exporting its `EXPERIMENT`.
pub mod exp {
    pub mod appendix;
    pub mod expand;
    pub mod fig10;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
    pub mod fig14;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod incast;
    pub mod isolation;
    pub mod loadsweep;
    pub mod mixed;
    pub mod table1;
}

pub use args::{ArgError, ArgErrorKind, Args, Param, CSV, SEED};
pub use report::{banner, f3, human_bytes, min_index_total, Table};

use pnet_flowsim::McfError;
use std::fmt;
use std::io::{self, Write};

/// Why an experiment (or a `pnet` subcommand) did not run to the end.
#[derive(Debug)]
pub enum Error {
    /// The command line was rejected; nothing was computed.
    Args(ArgError),
    /// `pnet exp <name>` named no registered experiment.
    UnknownExperiment(String),
    /// The flow solver refused the instance the flags describe.
    Solver(McfError),
    /// The report could not be written.
    Io(io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            Error::Args(e) => e.fmt(f),
            Error::UnknownExperiment(name) => {
                let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                write!(f, "unknown experiment {name:?}; known: {}", names.join(" "))
            }
            Error::Solver(e) => write!(f, "flow solver: {e}"),
            Error::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<ArgError> for Error {
    fn from(e: ArgError) -> Self {
        Error::Args(e)
    }
}

impl From<McfError> for Error {
    fn from(e: McfError) -> Self {
        Error::Solver(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// One table or figure of the paper (or an extension study).
pub struct Experiment {
    /// What `pnet exp <name>` calls it; `results/exp_<name>.txt` is its
    /// output at default arguments.
    pub name: &'static str,
    /// One line on what it reproduces.
    pub about: &'static str,
    /// Every flag `run` reads, with its default.
    pub params: &'static [Param<'static>],
    /// Run with the parsed flags, writing the report to the `Write`.
    pub run: fn(&Args, &mut dyn Write) -> Result<(), Error>,
}

/// Every experiment, in the paper's order, extensions last.
pub const REGISTRY: &[Experiment] = &[
    exp::table1::EXPERIMENT,
    exp::fig6::EXPERIMENT,
    exp::fig7::EXPERIMENT,
    exp::fig8::EXPERIMENT,
    exp::fig9::EXPERIMENT,
    exp::fig10::EXPERIMENT,
    exp::fig11::EXPERIMENT,
    exp::fig12::EXPERIMENT,
    exp::fig13::EXPERIMENT,
    exp::fig14::EXPERIMENT,
    exp::appendix::EXPERIMENT,
    exp::incast::EXPERIMENT,
    exp::isolation::EXPERIMENT,
    exp::mixed::EXPERIMENT,
    exp::loadsweep::EXPERIMENT,
    exp::expand::EXPERIMENT,
];

/// `pnet exp [<name> [flags]]`: run the named experiment on `argv[1..]`, or
/// with no name list every experiment and the flags it declares.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let Some((name, flags)) = argv.split_first() else {
        for e in REGISTRY {
            writeln!(out, "{:<10} {}", e.name, e.about)?;
            for (flag, default, help) in e.params {
                writeln!(out, "    --{flag:<15} {default:<20} {help}")?;
            }
        }
        return Ok(());
    };
    let exp = REGISTRY
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| Error::UnknownExperiment(name.clone()))?;
    let args = Args::parse(exp.params, flags.iter().cloned())?;
    (exp.run)(&args, out)
}
