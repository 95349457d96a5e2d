"""Synthetic reasoning datasets with the task structure of the paper's suites.

The paper evaluates on RAVEN, I-RAVEN, PGM (Raven-progressive-matrix style
abstract reasoning) and CVR/SVRT (compositional visual reasoning). Those
datasets are large external artifacts; what the Table IV / Fig. 5
experiments actually exercise is the *task structure* — attribute panels
governed by row rules, candidate sets with distractors — so this package
generates problems with exactly that structure (see DESIGN.md,
substitution table).

* :mod:`~repro.datasets.rpm` — 3×3 attribute-rule matrices with
  constant / progression / arithmetic / distribute-three rules and
  RAVEN/I-RAVEN/PGM-flavoured difficulty presets;
* :mod:`~repro.datasets.cvr_svrt` — CVR/SVRT-like relational
  classification items used by the MIMONet examples.

Names resolve on first use (:mod:`repro._lazy`). The workloads import
these modules themselves, so ``import repro`` loads them all.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "spec": ["RuleType", "RpmAttribute", "RpmDatasetSpec", "make_spec"],
    "rpm": ["RpmRule", "RpmPanel", "RpmProblem", "generate_problem", "generate_dataset"],
    "cvr_svrt": ["RelationalItem", "generate_relational_dataset"],
})
