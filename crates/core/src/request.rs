//! One request model for the `nvp analyze`/`nvp sweep` command line and the
//! `nvp serve` JSON API.
//!
//! Both front ends read the keys of one table: `n f r rejuvenation alpha p
//! p_prime mttc mttf mttr interval policy budget_ms max_markings`, plus
//! `axis from to steps` for sweeps. The command line spells a key as a flag
//! (`p_prime` → `--p-prime`; the boolean `rejuvenation` only as
//! `--no-rejuvenation`), a JSON body as a member name (`"p_prime"`). Every
//! rule a request obeys — the defaults, the four-version convention, the
//! policy names, the state-space budget, sweep-grid validation and the CSV
//! a sweep prints — lives here once, so a flag and a JSON key with the same
//! name always build the same request.

use crate::analysis::{linspace, ParamAxis, SolverBackend};
use crate::params::SystemParams;
use crate::reward::RewardPolicy;
use nvp_obs::json::Json;
use std::fmt::Display;
use std::str::FromStr;

/// Upper bound on the `steps` of one sweep. The grid is materialized up
/// front (`steps` f64s) and each point is a full solve, so an unbounded
/// value is an allocation bomb: an allocation-failure abort is not a panic,
/// and nothing can contain it.
pub const MAX_SWEEP_STEPS: usize = 100_000;

/// Grid size of a sweep that names none.
const DEFAULT_STEPS: usize = 10;

/// One analysis: `nvp analyze`, or a `POST /v1/analyze` body.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// System parameters (paper defaults with request overrides applied).
    pub params: SystemParams,
    /// Reward interpretation.
    pub policy: RewardPolicy,
    /// Solver backend (a `max_markings` cap selects the budgeted backend).
    pub backend: SolverBackend,
    /// Wall-clock deadline in milliseconds for each uncached solve.
    pub budget_ms: Option<u64>,
}

/// One sweep of `E[R_sys]` along a parameter axis: `nvp sweep`, or a
/// `POST /v1/sweep` body.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The analyze-level fields (params, policy, backend, deadline).
    pub base: AnalyzeRequest,
    /// Swept parameter.
    pub axis: ParamAxis,
    /// Grid start (inclusive, finite, below `to`).
    pub from: f64,
    /// Grid end (inclusive, finite).
    pub to: f64,
    /// Grid size, in `2..=MAX_SWEEP_STEPS`.
    pub steps: usize,
}

impl AnalyzeRequest {
    /// Parses a JSON body: an object whose members are request keys.
    /// Unknown keys, wrong types and out-of-range values are errors.
    ///
    /// # Errors
    ///
    /// A message naming the offending key as `` `key` ``.
    pub fn from_json(body: &Json) -> Result<Self, String> {
        Ok(Draft::from_json(body, Command::Analyze)?.analyze())
    }

    /// Parses the request flags in `args`, returning the request and, in
    /// order, the arguments that are not request flags.
    ///
    /// # Errors
    ///
    /// A message naming the offending flag as `--flag`.
    pub fn from_flags(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let (draft, rest) = Draft::from_flags(args, Command::Analyze)?;
        Ok((draft.analyze(), rest))
    }
}

impl SweepRequest {
    /// [`AnalyzeRequest::from_json`] for a sweep, which also reads `axis`,
    /// `from`, `to` and `steps` and validates the grid.
    ///
    /// # Errors
    ///
    /// A message naming the offending key as `` `key` ``.
    pub fn from_json(body: &Json) -> Result<Self, String> {
        Draft::from_json(body, Command::Sweep)?.sweep(Form::Json)
    }

    /// [`AnalyzeRequest::from_flags`] for a sweep, which also reads
    /// `--axis`, `--from`, `--to` and `--steps` and validates the grid.
    ///
    /// # Errors
    ///
    /// A message naming the offending flag as `--flag`.
    pub fn from_flags(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let (draft, rest) = Draft::from_flags(args, Command::Sweep)?;
        Ok((draft.sweep(Form::Flag)?, rest))
    }

    /// The `steps` evenly spaced axis values covering `[from, to]`.
    pub fn grid(&self) -> Vec<f64> {
        linspace(self.from, self.to, self.steps)
    }
}

/// The CSV a sweep prints: a header naming the axis, then one `x,E[R]`
/// row per point in plain `f64` `Display` form. `nvp sweep` and
/// `nvp serve` both write it, so their outputs are byte-identical.
pub fn sweep_csv(axis: ParamAxis, points: &[(f64, f64)]) -> String {
    let mut csv = format!("{},expected_reliability\n", axis.label());
    for (x, r) in points {
        csv.push_str(&format!("{x},{r}\n"));
    }
    csv
}

/// The request being parsed; which keys it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Analyze,
    Sweep,
}

impl Command {
    fn name(self) -> &'static str {
        match self {
            Command::Analyze => "analyze",
            Command::Sweep => "sweep",
        }
    }

    fn accepts(self, key: &Key) -> bool {
        self == Command::Sweep || !key.sweep_only
    }
}

/// How a front end spells a key in its messages.
#[derive(Debug, Clone, Copy)]
enum Form {
    Flag,
    Json,
}

impl Form {
    fn spell(self, key: &str) -> String {
        match self {
            Form::Flag => format!("--{}", key.replace('_', "-")),
            Form::Json => key.to_owned(),
        }
    }
}

/// A key's value type, carrying the setter that stores the value.
#[derive(Clone, Copy)]
enum Field {
    Count(fn(&mut Draft, u32)),
    Real(fn(&mut Draft, f64)),
    Switch(fn(&mut Draft, bool)),
    Millis(fn(&mut Draft, u64)),
    Size(fn(&mut Draft, usize)),
    Policy(fn(&mut Draft, RewardPolicy)),
    Axis(fn(&mut Draft, ParamAxis)),
}

struct Key {
    name: &'static str,
    sweep_only: bool,
    field: Field,
}

impl Key {
    /// The flag that sets this key; a boolean key is only ever turned off.
    fn flag(&self) -> String {
        match self.field {
            Field::Switch(_) => format!("--no-{}", self.name.replace('_', "-")),
            _ => Form::Flag.spell(self.name),
        }
    }
}

const fn key(name: &'static str, field: Field) -> Key {
    Key {
        name,
        sweep_only: false,
        field,
    }
}

const fn sweep_key(name: &'static str, field: Field) -> Key {
    Key {
        name,
        sweep_only: true,
        field,
    }
}

/// Every request key and the field it sets.
#[rustfmt::skip]
const KEYS: [Key; 18] = [
    key("n", Field::Count(|d, v| { d.base.params.n = v; d.saw_n = true; })),
    key("f", Field::Count(|d, v| d.base.params.f = v)),
    key("r", Field::Count(|d, v| d.base.params.r = v)),
    key("rejuvenation", Field::Switch(|d, v| d.base.params.rejuvenation = v)),
    key("alpha", Field::Real(|d, v| d.base.params.alpha = v)),
    key("p", Field::Real(|d, v| d.base.params.p = v)),
    key("p_prime", Field::Real(|d, v| d.base.params.p_prime = v)),
    key("mttc", Field::Real(|d, v| d.base.params.mean_time_to_compromise = v)),
    key("mttf", Field::Real(|d, v| d.base.params.mean_time_to_failure = v)),
    key("mttr", Field::Real(|d, v| d.base.params.mean_time_to_repair = v)),
    key("interval", Field::Real(|d, v| d.base.params.rejuvenation_interval = v)),
    key("policy", Field::Policy(|d, v| d.base.policy = v)),
    key("budget_ms", Field::Millis(|d, v| d.base.budget_ms = Some(v))),
    key("max_markings", Field::Size(|d, v| d.base.backend = SolverBackend::Budget(v))),
    sweep_key("axis", Field::Axis(|d, v| d.axis = Some(v))),
    sweep_key("from", Field::Real(|d, v| d.from = Some(v))),
    sweep_key("to", Field::Real(|d, v| d.to = Some(v))),
    sweep_key("steps", Field::Size(|d, v| d.steps = v)),
];

fn policy_named(name: &str) -> Result<RewardPolicy, String> {
    match name {
        "failed-only" => Ok(RewardPolicy::FailedOnly),
        "as-written" => Ok(RewardPolicy::AsWritten),
        other => Err(format!("bad policy `{other}` (failed-only | as-written)")),
    }
}

fn axis_named(name: &str) -> Result<ParamAxis, String> {
    ParamAxis::from_name(name).ok_or_else(|| {
        format!("unknown axis `{name}` (gamma | mttc | mttf | mttr | alpha | p | pprime)")
    })
}

/// A request with some keys applied.
struct Draft {
    base: AnalyzeRequest,
    saw_n: bool,
    axis: Option<ParamAxis>,
    from: Option<f64>,
    to: Option<f64>,
    steps: usize,
}

impl Draft {
    fn new() -> Draft {
        Draft {
            base: AnalyzeRequest {
                params: SystemParams::paper_six_version(),
                policy: RewardPolicy::FailedOnly,
                backend: SolverBackend::Auto,
                budget_ms: None,
            },
            saw_n: false,
            axis: None,
            from: None,
            to: None,
            steps: DEFAULT_STEPS,
        }
    }

    fn from_json(body: &Json, command: Command) -> Result<Draft, String> {
        let Json::Obj(members) = body else {
            return Err("request body must be a JSON object".into());
        };
        let mut draft = Draft::new();
        for (name, value) in members {
            let key = KEYS
                .iter()
                .find(|k| k.name == name && command.accepts(k))
                .ok_or_else(|| format!("unknown key `{name}` for {}", command.name()))?;
            draft.set_json(key, value)?;
        }
        Ok(draft)
    }

    fn set_json(&mut self, key: &Key, value: &Json) -> Result<(), String> {
        let name = key.name;
        let int = || {
            value
                .as_u64()
                .ok_or_else(|| format!("`{name}` must be a non-negative safe integer"))
        };
        let out_of_range = |_| format!("`{name}` out of range");
        let text = || {
            value
                .as_str()
                .ok_or_else(|| format!("`{name}` must be a string"))
        };
        match key.field {
            Field::Count(set) => set(self, u32::try_from(int()?).map_err(out_of_range)?),
            Field::Size(set) => set(self, usize::try_from(int()?).map_err(out_of_range)?),
            Field::Millis(set) => set(self, int()?),
            Field::Real(set) => set(
                self,
                value
                    .as_f64()
                    .ok_or_else(|| format!("`{name}` must be a number"))?,
            ),
            Field::Switch(set) => match value {
                Json::Bool(b) => set(self, *b),
                _ => return Err(format!("`{name}` must be a boolean")),
            },
            Field::Policy(set) => set(self, policy_named(text()?)?),
            Field::Axis(set) => set(self, axis_named(text()?)?),
        }
        Ok(())
    }

    fn from_flags(args: &[String], command: Command) -> Result<(Draft, Vec<String>), String> {
        let mut draft = Draft::new();
        let mut rest = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let key = KEYS
                .iter()
                .find(|k| command.accepts(k) && k.flag() == *flag);
            match key.map(|k| k.field) {
                None => rest.push(flag.clone()),
                Some(Field::Switch(set)) => set(&mut draft, false),
                Some(field) => {
                    let text = args
                        .next()
                        .ok_or_else(|| format!("flag `{flag}` requires a value"))?;
                    draft.set_text(field, flag, text)?;
                }
            }
        }
        Ok((draft, rest))
    }

    fn set_text(&mut self, field: Field, flag: &str, text: &str) -> Result<(), String> {
        fn parse<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
        where
            T::Err: Display,
        {
            text.parse()
                .map_err(|e| format!("bad value `{text}` for `{flag}`: {e}"))
        }
        match field {
            Field::Count(set) => set(self, parse(flag, text)?),
            Field::Real(set) => set(self, parse(flag, text)?),
            Field::Switch(set) => set(self, parse(flag, text)?),
            Field::Millis(set) => set(self, parse(flag, text)?),
            Field::Size(set) => set(self, parse(flag, text)?),
            Field::Policy(set) => set(self, policy_named(text)?),
            Field::Axis(set) => set(self, axis_named(text)?),
        }
        Ok(())
    }

    fn analyze(mut self) -> AnalyzeRequest {
        // Turning rejuvenation off without naming a size selects the
        // paper's four-version comparison system.
        if !self.base.params.rejuvenation && !self.saw_n {
            self.base.params.n = 4;
        }
        self.base
    }

    fn sweep(self, form: Form) -> Result<SweepRequest, String> {
        let [axis_key, from_key, to_key, steps_key] =
            ["axis", "from", "to", "steps"].map(|k| form.spell(k));
        let (Some(axis), Some(from), Some(to)) = (self.axis, self.from, self.to) else {
            return Err(format!(
                "sweep requires `{axis_key}`, `{from_key}` and `{to_key}`"
            ));
        };
        for (key, bound) in [(&from_key, from), (&to_key, to)] {
            if !bound.is_finite() {
                return Err(format!("sweep bound `{key}` must be finite, got {bound}"));
            }
        }
        if from >= to {
            return Err(format!(
                "sweep requires an ascending range `{from_key} < {to_key}`; got {from_key} \
                 {from} >= {to_key} {to}"
            ));
        }
        let steps = self.steps;
        if steps < 2 {
            return Err(format!(
                "sweep requires {steps_key} >= 2 to cover [{from}, {to}]; got {steps_key} {steps}"
            ));
        }
        if steps > MAX_SWEEP_STEPS {
            return Err(format!(
                "sweep `{steps_key}` is capped at {MAX_SWEEP_STEPS}; got {steps}"
            ));
        }
        Ok(SweepRequest {
            base: self.analyze(),
            axis,
            from,
            to,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Command::{Analyze, Sweep};

    fn flags(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// A request as `nvp` would build it: every request flag is in the
    /// table, so a flag the request hands back is unknown.
    fn by_flags(command: Command, line: &str) -> Result<String, String> {
        let args = flags(line);
        let (request, rest) = match command {
            Analyze => AnalyzeRequest::from_flags(&args).map(|(r, rest)| (format!("{r:?}"), rest)),
            Sweep => SweepRequest::from_flags(&args).map(|(r, rest)| (format!("{r:?}"), rest)),
        }?;
        match rest.first() {
            Some(flag) => Err(format!("unknown flag `{flag}`")),
            None => Ok(request),
        }
    }

    /// A request as `nvp serve` would build it from a body.
    fn by_json(command: Command, body: &str) -> Result<String, String> {
        let body = Json::parse(body).map_err(|e| e.to_string())?;
        match command {
            Analyze => AnalyzeRequest::from_json(&body).map(|r| format!("{r:?}")),
            Sweep => SweepRequest::from_json(&body).map(|r| format!("{r:?}")),
        }
    }

    const ALL_SHARED: &str = "--n 5 --f 1 --r 1 --no-rejuvenation --alpha 0.3 --p 0.01 \
        --p-prime 0.4 --mttc 1000 --mttf 500 --mttr 4 --interval 700 --policy as-written \
        --budget-ms 250 --max-markings 5000";
    const ALL_SHARED_JSON: &str = r#"{"n":5,"f":1,"r":1,"rejuvenation":false,"alpha":0.3,
        "p":0.01,"p_prime":0.4,"mttc":1000,"mttf":500,"mttr":4,"interval":700,
        "policy":"as-written","budget_ms":250,"max_markings":5000"#;

    /// (command, flags, JSON body, the key a refusal must name).
    #[rustfmt::skip]
    const CASES: &[(Command, &str, &str, Option<&str>)] = &[
        (Analyze, "", "{}", None),
        // The four-version rule, with and without an explicit N.
        (Analyze, "--no-rejuvenation", r#"{"rejuvenation":false}"#, None),
        (Analyze, "--no-rejuvenation --n 6", r#"{"rejuvenation":false,"n":6}"#, None),
        (Analyze, "--n 6 --no-rejuvenation", r#"{"n":6,"rejuvenation":false}"#, None),
        (Analyze, "--max-markings 100", r#"{"max_markings":100}"#, None),
        (Analyze, "--policy failed-only", r#"{"policy":"failed-only"}"#, None),
        (Sweep, "--axis gamma --from 300 --to 900", r#"{"axis":"gamma","from":300,"to":900}"#, None),
        // Unknown keys, and a sweep key on an analyze.
        (Analyze, "--bogus 1", r#"{"bogus":1}"#, None),
        (Analyze, "--axis alpha", r#"{"axis":"alpha"}"#, None),
        (Sweep, "--axis p --from 0 --to 1 --stepz 3", r#"{"axis":"p","from":0,"to":1,"stepz":3}"#, None),
        // Bad values.
        (Analyze, "--n six", r#"{"n":"six"}"#, None),
        (Analyze, "--n -1", r#"{"n":-1}"#, None),
        (Analyze, "--policy nonsense", r#"{"policy":"nonsense"}"#, None),
        (Analyze, "--max-markings -3", r#"{"max_markings":-3}"#, None),
        (Sweep, "--axis warp --from 1 --to 2", r#"{"axis":"warp","from":1,"to":2}"#, None),
        // Each sweep-grid rule; JSON cannot spell a non-finite number.
        (Sweep, "--from 0 --to 1", r#"{"from":0,"to":1}"#, Some("axis")),
        (Sweep, "--axis p --from nan --to 1", r#"{"axis":"p","from":NaN,"to":1}"#, None),
        (Sweep, "--axis p --from 0 --to inf", r#"{"axis":"p","from":0,"to":1e999}"#, None),
        (Sweep, "--axis p --from 1 --to 0", r#"{"axis":"p","from":1,"to":0}"#, Some("from")),
        (Sweep, "--axis p --from 1 --to 1", r#"{"axis":"p","from":1,"to":1}"#, Some("from")),
        (Sweep, "--axis p --from 0 --to 1 --steps 1", r#"{"axis":"p","from":0,"to":1,"steps":1}"#, Some("steps")),
        (Sweep, "--axis p --from 0 --to 1 --steps 0", r#"{"axis":"p","from":0,"to":1,"steps":0}"#, Some("steps")),
        (Sweep, "--axis p --from 0 --to 1 --steps 100001", r#"{"axis":"p","from":0,"to":1,"steps":100001}"#, Some("steps")),
        (Sweep, "--axis p --from 0 --to 1 --steps 100000", r#"{"axis":"p","from":0,"to":1,"steps":100000}"#, None),
    ];

    /// Both front ends build the same request from the same keys, or both
    /// refuse; a refusal names the key in the front end's own spelling.
    #[test]
    fn flags_and_json_build_the_same_requests() {
        let sweep_all = format!("{ALL_SHARED} --axis alpha --from 0.1 --to 0.9 --steps 5");
        let sweep_all_json =
            format!(r#"{ALL_SHARED_JSON},"axis":"alpha","from":0.1,"to":0.9,"steps":5}}"#);
        let all_shared_json = format!("{ALL_SHARED_JSON}}}");
        let every_key = [
            (Analyze, ALL_SHARED, all_shared_json.as_str(), None),
            (Sweep, &sweep_all, &sweep_all_json, None),
        ];
        for &(command, line, body, named) in every_key.iter().chain(CASES) {
            let (from_flags, from_json) = (by_flags(command, line), by_json(command, body));
            match (&from_flags, &from_json) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{line} vs {body}"),
                (Err(_), Err(_)) => {}
                _ => panic!("{line}: {from_flags:?} vs {body}: {from_json:?}"),
            }
            if let Some(key) = named {
                let (Err(flag_err), Err(json_err)) = (&from_flags, &from_json) else {
                    panic!("{line} should be refused");
                };
                let flag = Form::Flag.spell(key);
                assert!(flag_err.contains(&flag), "{flag_err} should name {flag}");
                assert!(
                    json_err.contains(key) && !json_err.contains("--"),
                    "{json_err}"
                );
            }
        }
        // The table's every key is set by some case.
        for key in &KEYS {
            let member = format!("\"{}\"", key.name);
            assert!(
                sweep_all_json.contains(&member),
                "no case sets `{}`",
                key.name
            );
        }
        let (request, _) = SweepRequest::from_flags(&flags(&sweep_all)).unwrap();
        assert_eq!(
            request.base.params.n, 5,
            "an explicit N survives the four-version rule"
        );
        assert!(!request.base.params.rejuvenation);
        assert_eq!(request.base.policy, RewardPolicy::AsWritten);
        assert_eq!(request.base.budget_ms, Some(250));
        assert_eq!(request.base.backend, SolverBackend::Budget(5000));
        assert_eq!(request.grid(), linspace(0.1, 0.9, 5));
        let (four, _) = AnalyzeRequest::from_flags(&flags("--no-rejuvenation")).unwrap();
        assert_eq!(four.params.n, 4);
        let (paper, _) = AnalyzeRequest::from_flags(&[]).unwrap();
        assert_eq!(paper.params, SystemParams::paper_six_version());
        assert_eq!(paper.backend, SolverBackend::Auto);
    }

    #[test]
    fn flags_the_table_does_not_know_are_handed_back_in_order() {
        let args = flags("--stats --n 5 --out x.csv --axis");
        let (request, rest) = AnalyzeRequest::from_flags(&args).unwrap();
        assert_eq!(request.params.n, 5);
        // `--axis` is a sweep key: an analyze hands it back.
        assert_eq!(rest, flags("--stats --out x.csv --axis"));
        let err = AnalyzeRequest::from_flags(&flags("--alpha")).unwrap_err();
        assert!(err.contains("`--alpha` requires a value"), "{err}");
    }

    #[test]
    fn json_integers_must_be_safe() {
        // 2^64 would silently saturate under a lossy integer read, and
        // 2^53 + 1 is not exactly representable.
        for body in [
            r#"{"budget_ms":18446744073709551616}"#,
            r#"{"budget_ms":9007199254740993}"#,
        ] {
            assert!(by_json(Analyze, body).is_err(), "{body}");
        }
    }

    #[test]
    fn sweep_steps_are_capped() {
        // An uncapped `steps` reaches linspace as a Vec length: 2^53-1
        // would be an allocation-failure abort, not an error.
        for over in [MAX_SWEEP_STEPS as u64 + 1, 1_000_000_000, (1 << 53) - 1] {
            let body = format!(r#"{{"axis":"alpha","from":0,"to":1,"steps":{over}}}"#);
            let err = by_json(Sweep, &body).unwrap_err();
            assert!(err.contains("capped"), "steps {over}: {err}");
        }
    }

    #[test]
    fn csv_has_the_documented_shape() {
        let csv = sweep_csv(ParamAxis::Alpha, &[(0.1, 0.9375), (0.2, 0.9)]);
        assert_eq!(csv, "alpha,expected_reliability\n0.1,0.9375\n0.2,0.9\n");
    }
}
