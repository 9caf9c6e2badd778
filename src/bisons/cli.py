"""Command line entry points.

    bisons run --algo bisons --d 3 --T 1000 --adversary iid-dirichlet --seed 1 --out runs/x
    bisons adversary gen-lbftrl --d 3 --T 10000 --alpha 0.5 --out runs/bad
    bisons check --suite lemmas
    bisons best-crp --data returns.csv
"""

import argparse
import sys

from .harness import ALGORITHMS, ExperimentConfig, best_crp, load_returns, parse_config_file, run_experiment
from .solver import ROUND_ERRORS


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    p.add_argument("--d", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--data", help="returns or measurements file")
    p.add_argument("--adversary", help="iid-dirichlet | single-asset-crash | alternating-basis | lbftrl-bad")
    p.add_argument("--seed", type=int, help="root seed (default 0)")
    p.add_argument("--alpha", type=float, help="lbftrl-bad pull-in exponent (lbftrl on lbftrl-bad only; default 0.5)")
    p.add_argument("--eta", type=float,
                   help="learning rate: lbftrl's (default 1.0), or the bisons/qbisons parameter override")
    p.add_argument("--pad-uniform", action="store_true",
                   help="pad a short returns sequence with uniform rows up to T")
    p.add_argument("--config", help="flat key = value config file; flags given override it")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="parameter override, e.g. --set B=20 --set eta=0.015")
    p.add_argument("--out", help="output directory (default .)")
    return p


def _run(args):
    mapping = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key in ("algo", "d", "T", "data", "adversary", "seed", "out", "alpha", "eta"):
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    if args.pad_uniform:
        mapping["pad_uniform"] = True
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if "d" not in mapping or "T" not in mapping:
        raise ValueError("--d and --T are required (flag or config file)")
    summary = run_experiment(ExperimentConfig.from_mapping(mapping))
    print(f"wrote {summary['rounds']} rounds to {mapping.get('out', '.')}; "
          f"final regret {summary['final_regret']:.6g}")
    return 0


def _gen_lbftrl(args):
    import os

    from .lbftrl import AdversaryPlan, generate_returns
    from .harness import save_returns

    plan = AdversaryPlan.build(args.d, args.T, args.alpha)
    result = generate_returns(plan, args.eta)
    os.makedirs(args.out, exist_ok=True)
    plan.export(os.path.join(args.out, "plan.txt"))
    save_returns(os.path.join(args.out, "returns.csv"), result.returns)
    print(f"generated {result.returns.shape[0]} rounds "
          f"({int(result.movement_flags.sum())} movement), truncated={result.truncated}")
    return 0


def _check(args):
    from .checks import run_checks

    results = run_checks(args.suite)
    for res in results:
        print(res.line())
    return 0 if all(res.passed for res in results) else 1


def _best_crp(args):
    R = load_returns(args.data)
    u, loss = best_crp(R)
    print("best CRP:", ",".join(format(v, ".12g") for v in u))
    print("cumulative loss:", format(loss, ".12g"))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bisons")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    adv = sub.add_parser("adversary", help="adversarial sequence tools")
    adv_sub = adv.add_subparsers(dest="adv_command", required=True)
    gen = adv_sub.add_parser("gen-lbftrl", help="generate a regret-forcing returns sequence")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--T", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=0.5)
    gen.add_argument("--eta", type=float, default=1.0)
    gen.add_argument("--out", required=True)

    chk = sub.add_parser("check", help="run acceptance checks")
    chk.add_argument("--suite", default="all",
                     choices=["all", "lemmas", "bisons", "qbisons", "lbftrl"])

    bc = sub.add_parser("best-crp", help="hindsight comparator for a returns file")
    bc.add_argument("--data", required=True)

    args = parser.parse_args(argv)
    command = {"run": _run, "adversary": _gen_lbftrl, "check": _check, "best-crp": _best_crp}[args.command]
    try:
        return command(args)
    except (OSError, *ROUND_ERRORS) as exc:
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    sys.exit(main())
