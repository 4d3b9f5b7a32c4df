"""Command-line entry points: synth, train, eval, gradcheck, propcheck,
export-mesh. Failures print a machine-readable JSON summary and exit
nonzero."""

from __future__ import annotations

import argparse
import json
import sys

from .config import PipelineConfig
from .errors import ConfigError, HypermeshError
from .pipeline import export_obj
from .synth import load_scene, save_scene, synth_generate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypermesh")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the toy pipeline on one scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint, write metric CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--scene", default=None,
                   help="scene directory (default: regenerate from config seed)")

    p = sub.add_parser("gradcheck", help="run the gradient-check registry")
    p.add_argument("--module", default=None)

    p = sub.add_parser("propcheck", help="run the property-check registry")
    p.add_argument("--module", default=None)
    p.add_argument("--cases", type=int, default=None)

    p = sub.add_parser("export-mesh", help="export one predicted frame as OBJ")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scene", default=None)

    return parser


def _cmd_synth(args) -> int:
    cfg = PipelineConfig.load(args.config)
    scene = synth_generate(cfg)
    save_scene(scene, args.out)
    print(json.dumps({"scene_dir": str(args.out), "frames": cfg.t_frames}))
    return 0


def _cmd_train(args) -> int:
    from .train import train_toy
    cfg = PipelineConfig.load(args.config)
    result = train_toy(cfg, out_dir=args.out)
    print(json.dumps({
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "steps": len(result.losses),
        "checkpoint": str(result.checkpoint_path),
        "loss_curve": str(result.loss_curve_path),
    }))
    return 0


def _cmd_eval(args) -> int:
    from .train import evaluate
    cfg = PipelineConfig.load(args.config)
    scene = load_scene(args.scene) if args.scene else synth_generate(cfg)
    summary = evaluate(cfg, args.checkpoint, args.report, scene=scene)
    print(json.dumps(summary))
    return 0


def _print_checks(rows: list[dict], kind: str, module, detail) -> int:
    """One PASS/FAIL line per check, then the tally; 0 when every check
    passed, else 1. A run that checks nothing is a config error, not a pass."""
    if not rows:
        raise ConfigError(f"--module {module!r} selects no {kind}")
    for r in rows:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['module']}/{r['check']} {detail(r)}")
    print(f"{sum(r['passed'] for r in rows)}/{len(rows)} {kind} passed")
    return 0 if all(r["passed"] for r in rows) else 1


def _cmd_gradcheck(args) -> int:
    from .checks import run_gradchecks
    rows = run_gradchecks(module=args.module)
    return _print_checks(rows, "gradchecks", args.module, lambda r: (
        f"max_rel_err={r['max_rel_err']:.3e} tol={r['tol']:.1e}"))


def _cmd_propcheck(args) -> int:
    from .checks import run_propchecks
    if args.cases is not None and args.cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {args.cases}")
    rows = run_propchecks(module=args.module, cases=args.cases)
    return _print_checks(rows, "propchecks", args.module, lambda r: f"cases={r['cases']}" + (
        "" if r["passed"] else f" ({r.get('detail', '')})"))


def _cmd_export_mesh(args) -> int:
    from .train import predict
    cfg = PipelineConfig.load(args.config)
    # a negative index would silently pick a frame from the end; the scene
    # check makes the prediction's frame count cfg.t_frames
    if not (0 <= args.frame < cfg.t_frames):
        raise ConfigError(f"frame {args.frame} out of range [0, {cfg.t_frames})")
    scene = load_scene(args.scene) if args.scene else synth_generate(cfg)
    verts = predict(cfg, args.checkpoint, scene)[args.frame]
    export_obj(args.out, verts, scene.topology.faces)
    print(json.dumps({"obj": str(args.out), "vertices": int(verts.shape[0])}))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "propcheck": _cmd_propcheck,
    "export-mesh": _cmd_export_mesh,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 3
    except (FileNotFoundError, OSError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 4
    except HypermeshError as exc:
        print(json.dumps({"error": "contract", "message": str(exc)}), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
