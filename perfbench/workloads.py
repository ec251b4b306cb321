"""Benchmark workloads: one synthetic corpus plus one run configuration each.

Every workload goes through the same three CLI verbs (synth, then train or
crossval, then evaluate).  The corpus seed and the run seed both come from
the benchmark's ``--seed`` argument; the program only sees the generated
files.  On a 2-core x86 VM one repetition takes about 12 s (noise_trees),
15 s (ref62_holdout) and 19 s (loso5_long), so a 40 s run holds three,
two and two of them.

Sizes are the smallest that keep every check passing on every seed tried:
holdout needs 10 trials; the separable workloads need 30 boosted trees to
vote over random column subsets, and loso5_long needs 30 trials with low
sensor noise, because its 6x6 network input keeps only a weak trace of the
class.  noise_trees scores all 180 trials (leave-one-subject-out) so that
its chance-level accuracy varies little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

TASKS = ("bilabial", "nasal", "cv", "uw", "iy")

# The synthetic generator encodes one binary class, driven by the ``uw``
# prompt table.  For a workload that scores all five tasks on a separable
# corpus, every task's positive set is either /uw/ or its complement, so each
# task's label is a function of the generated class.  The work per task does
# not depend on which prompts are positive.
_UW = ["/uw/"]
_NOT_UW = ["/iy/", "/piy/", "/tiy/", "/diy/", "/m/", "/n/", "pat", "pot", "knew", "gnaw"]
SEPARABLE_TASK_TABLE = {"bilabial": _UW, "nasal": _NOT_UW, "cv": _NOT_UW, "uw": _UW,
                        "iy": _UW}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str                  # "train" (holdout) or "crossval" (leave-one-subject-out)
    synth: dict                # flags of ``eegspeech synth``
    config: dict               # run config without seed and output_dir
    separable: bool            # accuracy must clear MIN_ACCURACY, else sit at chance
    evaluate_calls: int = 1    # evaluate calls per untraced repetition; median kept

    def synth_argv(self, out: str, seed: int) -> list[str]:
        argv = ["synth", "--out", out, "--seed", str(seed)]
        for key, value in self.synth.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return argv

    def run_config(self, seed: int, output_dir: str) -> dict:
        return {"seed": seed, "output_dir": output_dir, **self.config}


def _networks(epochs: int, batch: int) -> dict:
    return {name: {"epochs": epochs, "batch_size": batch} for name in ("cnn", "lstm", "dae")}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref62_holdout",
        why="reference 62x62 input and networks, holdout: conv kernels, the 13.8M-param "
            "Adam step and the 110 MB CNN checkpoint carry it; trees do almost nothing",
        verb="train",
        synth={"n_trials": 10, "n_channels": 62, "n_subjects": 3, "separability": 3.0,
               "n_times": 256, "sample_rate": 128.0},
        config={"tasks": ["uw"], "split": {"mode": "random_holdout"},
                "covariance": {"input_size": 62}, **_networks(1, 16),
                "gbt": {"n_estimators": 30, "max_depth": 2, "min_child_weight": 0.5}},
        separable=True,
        # evaluate scores one trial in about 1 s, mostly loading the 110 MB
        # checkpoint, and one call in five took half as long again; the
        # median of three calls keeps such a call out of the result.
        evaluate_calls=3,
    ),
    Workload(
        name="noise_trees",
        why="8 channels of pure noise, untrained networks: trees grow as deep as their rows "
            "allow, so exact-greedy split search is the largest layer; conv at 8x8 does little",
        verb="crossval",
        synth={"n_trials": 180, "n_channels": 8, "n_subjects": 3, "separability": 0.0,
               "n_times": 256, "sample_rate": 128.0},
        config={"tasks": ["uw"], "split": {"mode": "leave_one_subject_out"},
                "covariance": {"input_size": 8}, **_networks(0, 64),
                "gbt": {"n_estimators": 100, "max_depth": 10, "min_child_weight": 0.1}},
        separable=False,
    ),
    Workload(
        name="loso5_long",
        why="62ch x 5000-sample trials, five tasks, leave-one-subject-out: bandpass and "
            "CCV rerun per task and verb, 15 folds, many batch-1 inferences, bundle I/O",
        verb="crossval",
        synth={"n_trials": 30, "n_channels": 62, "n_subjects": 3, "separability": 3.0,
               "n_times": 5000, "sample_rate": 1000.0, "noise": 0.01},
        config={"tasks": list(TASKS), "split": {"mode": "leave_one_subject_out"},
                "task_table": SEPARABLE_TASK_TABLE,
                "covariance": {"input_size": 6}, **_networks(1, 16),
                "gbt": {"n_estimators": 30, "max_depth": 3, "min_child_weight": 0.5}},
        separable=True,
    ),
)}

#: Pooled accuracy every separable workload must reach.
MIN_ACCURACY = 0.9
#: Half-width of the chance band, in binomial standard deviations of the
#: pooled test-set accuracy, for workloads whose labels carry no signal.
CHANCE_BAND_SD = 5.0
