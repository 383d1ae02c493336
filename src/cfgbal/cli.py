"""Command-line interface: instance generation, smoothing, offline/online
runs, the exact oracle, LP checks, expected-max estimation, and simulation.

All configuration comes through flags; no environment variables are read.
Exit codes: 0 success (including the trivial all-zero-demand case), 2 for
an lp-check Infeasible verdict (the output carries the certificate), 1 for
errors, solver failures and instances of the wrong kind. Reports are plain
text or CSV written with repr-formatted numbers, so a fixed seed reproduces
files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .distributions import ValidationError
from .instance_io import ParseError, read_instance, write_instance
from .instances import (
    RelatedInstance,
    RoutingInstance,
    as_float_instance,
    gen_adaptivity_gap_instance,
    gen_clairvoyance_adversary_instance,
    random_tiny_instance,
    smooth_machines,
)
from .lp import (
    Infeasible,
    NoFeasibleTau,
    NumericalFailure,
    solve_lpc,
    solve_lpp_column_generation,
)
from .offline import offline_config_balancing, offline_related, offline_routing
from .online import (
    nonclairvoyant_sqrt_list,
    run_online_config,
    run_online_related,
    run_online_routing,
)
from .oracle import (
    AdaptiveOracle,
    IncompletePolicy,
    StateSpaceExceeded,
    evaluate_policy,
    non_adaptive_policy,
    restart_policy,
)
from .simulate import (
    NonAdaptiveAssignment,
    estimate_expected_max,
    expmax_regime,
    request_stream,
    simulate_policy,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_tau(text):
    """A --tau argument as an exact Fraction ("2", "11/4", "0.5"). It must
    also fit a float: lp-check and simulate compute with float(tau)."""
    try:
        tau = Fraction(text)
        float(tau)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(f"invalid --tau {text!r}: expected a finite number or p/q") from None
    return tau


def read_policy_file(path):
    """The choices of a policy file: {"choices": {"<request id>": choice}},
    a choice being an int or a list of ints (a path, read as a tuple).
    ParseError names the file and the field at fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ParseError(f"policy file {path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("choices"), dict):
        raise ParseError(f"policy file {path}: expected an object field 'choices'")
    choices = {}
    for key, value in doc["choices"].items():
        if isinstance(value, list):
            value = tuple(value)
        parts = value if isinstance(value, tuple) else (value,)
        if not re.fullmatch(r"-?[0-9]+", key) or not all(type(v) is int for v in parts):
            raise ParseError(
                f"policy file {path}: choices[{key!r}] must map an integer id to "
                f"an int or a list of ints, got {value!r}"
            )
        choices[int(key)] = value
    return choices


def report_lines(title, pairs):
    lines = [f"# {title}"]
    for key, value in pairs:
        lines.append(f"{key}: {_fmt(value)}")
    return lines


def simulation_csv(report):
    """The header and the one row of a simulation's CSV report."""
    header = "trials,seed,mean_makespan,stderr,mean_exceptional," + ",".join(
        f"load_{i}" for i in range(len(report.resource_means))
    )
    row = ",".join(
        [
            str(report.trials),
            str(report.seed),
            repr(report.mean_makespan),
            repr(report.stderr),
            repr(report.mean_exceptional),
        ]
        + [repr(v) for v in report.resource_means]
    )
    return [header, row]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    # the tiny kinds take --n and --m as maxima, which may not pass their caps
    m = args.m if args.m is not None else 4 if args.kind in ("gap", "adversary") else 3
    if args.kind == "gap":
        tau = parse_tau(args.tau) if args.tau is not None else 2
        inst = gen_adaptivity_gap_instance(m, tau)
    elif args.kind == "adversary":
        inst = gen_clairvoyance_adversary_instance(m)
    elif args.kind in ("config", "unrelated", "related"):
        rng = request_stream(args.seed, 0)
        inst = random_tiny_instance(args.kind, rng, n_max=args.n, m_max=m)
    else:
        raise ValidationError(f"unknown generator kind {args.kind!r}")
    write_instance(inst, args.out)
    print(f"wrote {args.kind} instance to {args.out}")
    return EXIT_OK


def cmd_smooth(args):
    inst = read_instance(getattr(args, "in"))
    if not isinstance(inst, RelatedInstance):
        raise ValidationError("smooth expects a related instance")
    groups, smoothed = smooth_machines(inst)
    write_instance(smoothed, args.out)
    for speed, count, ids in groups:
        print(f"group speed={_fmt(speed)} machines={count} ids={list(ids)}")
    return EXIT_OK


def cmd_offline(args):
    inst = as_float_instance(read_instance(getattr(args, "in")), args.algo)
    rng = request_stream(args.seed, 0)
    if args.algo == "routing":
        report = offline_routing(inst, rng)
    elif args.algo == "related":
        _, report = offline_related(inst, rng)
    else:
        report = offline_config_balancing(inst, rng)
    pairs = [
        ("algorithm", args.algo),
        ("seed", args.seed),
        ("tau", report.tau),
        ("lp_status", report.lp_status),
        ("opt_lower_bound", report.opt_lower_bound),
        ("exceptional_total", report.exceptional_total),
    ]
    for j, choice in sorted(report.assignment.items()):
        pairs.append((f"choice_{j}", choice))
    for i, load in enumerate(report.truncated_loads):
        pairs.append((f"truncated_load_{i}", load))
    write_report(report_lines("offline report", pairs), args.report)
    return EXIT_OK


def cmd_online(args):
    kind = "related" if args.algo == "sqrt-baseline" else args.algo
    inst = as_float_instance(read_instance(getattr(args, "in")), kind)
    if args.algo == "routing":
        run = run_online_routing(inst)
    elif args.algo == "related":
        rng = request_stream(args.seed, 0)
        realized = [law.sample(rng) for law in inst.jobs]
        run, _ = run_online_related(inst, lambda j, law: realized[j])
    elif args.algo == "sqrt-baseline":
        rng = request_stream(args.seed, 0)
        realized = [law.sample(rng) for law in inst.jobs]
        trace, sched = nonclairvoyant_sqrt_list(inst, lambda j, i: realized[j])
        pairs = [("algorithm", args.algo), ("seed", args.seed), ("makespan", float(sched.makespan()))]
        for j, i, size in trace:
            pairs.append((f"job_{j}", f"machine={i} size={_fmt(size)}"))
        write_report(report_lines("online report", pairs), args.report)
        return EXIT_OK
    else:
        run = run_online_config(inst)
    pairs = [
        ("algorithm", args.algo),
        ("seed", args.seed),
        ("final_lambda", run.final_lambda),
        ("phases", run.phases),
    ]
    width = len(run.state.loads)
    for rec in run.records:
        if args.algo == "routing":
            proxy = "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in sorted(rec.proxy)) + "}"
        else:
            # _fmt(0.0) is "0.0": only the admitted increments need formatting
            dense = ["0.0"] * width
            for i, x in rec.proxy:
                dense[i] = _fmt(x)
            proxy = "(" + ", ".join(dense) + ")"
        pairs.append(
            (
                f"request_{rec.request}",
                f"phase={rec.phase} lambda={_fmt(rec.lam)} choice={rec.choice} "
                f"proxy={proxy} dphi={_fmt(rec.dphi)}",
            )
        )
    write_report(report_lines("online report", pairs), args.report)
    return EXIT_OK


def cmd_oracle(args):
    inst = read_instance(getattr(args, "in"))
    tau = parse_tau(args.tau) if args.tau is not None else None
    if args.what == "opt":
        oracle = AdaptiveOracle(inst)
        value = oracle.value()
        pairs = [("expected_makespan", value)]
        if tau is not None:
            pv = evaluate_policy(inst, oracle.policy(), tau)
            pairs.append(("exceptional_at_tau", pv.exceptional))
            pairs.append(("tau", tau))
        write_report(report_lines("oracle opt", pairs), args.report)
        return EXIT_OK
    if args.what == "restart":
        if tau is None:
            raise ValidationError("restart needs --tau")
        _, value = restart_policy(inst, tau)
    elif args.what == "eval":
        if tau is None or not args.policy_file:
            raise ValidationError("eval needs --tau and --policy-file")
        assignment = read_policy_file(args.policy_file)
        value = evaluate_policy(inst, non_adaptive_policy(assignment), tau)
    else:
        raise ValidationError(f"unknown oracle mode {args.what!r}")
    pairs = [("tau", tau), ("expected_makespan", value.makespan),
             ("expected_exceptional", value.exceptional)]
    write_report(report_lines(f"oracle {args.what}", pairs), args.report)
    return EXIT_OK


def cmd_lp_check(args):
    inst = read_instance(getattr(args, "in"))
    tau = float(parse_tau(args.tau))
    if isinstance(inst, RoutingInstance):
        verdict = solve_lpp_column_generation(as_float_instance(inst, "routing"), tau)
        name = "LP_P"
    else:
        verdict = solve_lpc(as_float_instance(inst, "config"), tau)
        name = "LP_C"
    if isinstance(verdict, Infeasible):
        print(f"{name} infeasible at tau={tau}: {verdict.reason}")
        print(f"certificate: E[OPT] > {tau / 2}")
        return EXIT_VERDICT
    print(f"{name} feasible at tau={tau}")
    return EXIT_OK


def cmd_expmax(args):
    tau = parse_tau(args.tau)
    if tau <= 0:
        raise ValidationError(f"invalid --tau {args.tau!r}: must be positive")
    tau = float(tau)
    spec, weights = expmax_regime(args.regime, args.m, tau)
    est, err = estimate_expected_max(spec, args.trials, args.seed, weights=weights)
    write_report(
        report_lines(
            "expected-max estimate",
            [
                ("regime", args.regime),
                ("m", args.m),
                ("tau", tau),
                ("trials", args.trials),
                ("seed", args.seed),
                ("estimate", est),
                ("stderr", err),
            ],
        ),
        args.report,
    )
    return EXIT_OK


def cmd_simulate(args):
    inst = read_instance(getattr(args, "in"))
    policy = NonAdaptiveAssignment(read_policy_file(args.policy_file))
    tau = float(parse_tau(args.tau)) if args.tau is not None else None
    report = simulate_policy(inst, policy, args.trials, args.seed, tau=tau)
    write_report(simulation_csv(report), args.report)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfgbal",
        description="configuration balancing with stochastic requests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", required=True,
                   choices=["gap", "adversary", "config", "unrelated", "related"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tau", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("smooth", help="machine smoothing for related instances")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("offline", help="offline algorithms")
    p.add_argument("--in", required=True)
    p.add_argument("--algo", required=True, choices=["config", "routing", "related"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("online", help="online algorithms")
    p.add_argument("--in", required=True)
    p.add_argument("--algo", required=True,
                   choices=["config", "related", "routing", "sqrt-baseline"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("oracle", help="exact adaptive oracle")
    p.add_argument("--in", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--what", required=True, choices=["opt", "restart", "eval"])
    p.add_argument("--policy-file", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lp-check", help="LP feasibility at a threshold")
    p.add_argument("--in", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(func=cmd_lp_check)

    p = sub.add_parser("expmax", help="expected-maximum estimation")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--tau", default="1")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", required=True, choices=["sqrtlog", "logm", "geo"])
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_expmax)

    p = sub.add_parser("simulate", help="Monte-Carlo policy simulation")
    p.add_argument("--in", required=True)
    p.add_argument("--policy-file", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def shared_parser():
    """The parser every main call reuses: built on first use, since building
    the argparse tree costs more than parsing one command line."""
    return build_parser()


def main(argv=None):
    parser = shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved for
        # lp-check's Infeasible verdict here
        return 0 if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (
        ValidationError,
        ParseError,
        OSError,
        NoFeasibleTau,
        NumericalFailure,
        IncompletePolicy,
        StateSpaceExceeded,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
