"""The four workloads, by their stable names."""

from .compile_cold import CompileCold
from .eval_campaign import EvalCampaign
from .serve_churn import ServeChurn
from .serve_hot import ServeHot

REGISTRY = {
    cls.name: cls for cls in (ServeHot, ServeChurn, CompileCold, EvalCampaign)
}
