"""Modular ontology-alignment toolkit.

Parse OWL/RDF ontologies, encode their concepts under label/children/
parents views, align them with fuzzy, retrieval, or LLM-backed methods,
filter the result, evaluate it against a reference, and export it in the
OAEI cell XML vocabulary or JSON.
"""

from .encoding import ConceptText, EncodedCorpus, EncodingView, encode, normalize, tokenize
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyCorpus,
    EmptyOntology,
    EndpointUnreachable,
    InvalidScore,
    MalformedDocument,
    MissingEntity,
    OntomatchError,
    PairCapExceeded,
    ProviderError,
    TemplateError,
    UnsupportedFormat,
    ViewMismatch,
)
from .evaluation import ComparisonTable, Metrics, compare, evaluate
from .export import (
    atomic_write,
    export_json,
    export_xml,
    format_measure,
    write_alignment,
)
from .fuzzy import (
    FuzzyConfig,
    align_fuzzy,
    fuzzy_ratio,
    lcs_length,
    token_set_ratio,
    weighted_token_set_ratio,
)
from .llm import Decision, HttpLLMClient, LLMConfig, MockLLMClient, make_llm_client, read_answer
from .mapping import AlignmentDocument, Correspondence
from .parsing import (
    ConceptRecord,
    Ontology,
    derive_label,
    load_json_alignment,
    parse_ontology,
    parse_reference_alignment,
)
from .pipeline import PipelineConfig, RunReport, run_pipeline
from .postprocess import (
    PostprocessConfig,
    apply_postprocess,
    cardinality_filter,
    threshold_filter,
)
from .rag import (
    Exemplar,
    PromptTemplate,
    RAGConfig,
    align_llm_pairwise,
    align_rag,
    build_prompt,
    load_exemplars,
)
from .retrieval import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    RetrievalConfig,
    TfidfModel,
    VectorMatrix,
    align_retrieval,
    cosine_topk,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentDocument",
    "ComparisonTable",
    "ConceptRecord",
    "ConceptText",
    "ConfigError",
    "Correspondence",
    "Decision",
    "DimensionMismatch",
    "EmptyCorpus",
    "EmptyOntology",
    "EncodedCorpus",
    "EncodingView",
    "EndpointUnreachable",
    "Exemplar",
    "FuzzyConfig",
    "HttpEmbeddingProvider",
    "HttpLLMClient",
    "InvalidScore",
    "LLMConfig",
    "MalformedDocument",
    "Metrics",
    "MissingEntity",
    "MockEmbeddingProvider",
    "MockLLMClient",
    "Ontology",
    "OntomatchError",
    "PairCapExceeded",
    "PipelineConfig",
    "PostprocessConfig",
    "PromptTemplate",
    "ProviderError",
    "RAGConfig",
    "RetrievalConfig",
    "RunReport",
    "TemplateError",
    "TfidfModel",
    "UnsupportedFormat",
    "VectorMatrix",
    "ViewMismatch",
    "align_fuzzy",
    "align_llm_pairwise",
    "align_rag",
    "align_retrieval",
    "apply_postprocess",
    "atomic_write",
    "build_prompt",
    "cardinality_filter",
    "compare",
    "cosine_topk",
    "derive_label",
    "encode",
    "evaluate",
    "export_json",
    "export_xml",
    "format_measure",
    "fuzzy_ratio",
    "lcs_length",
    "load_exemplars",
    "load_json_alignment",
    "make_llm_client",
    "normalize",
    "parse_ontology",
    "parse_reference_alignment",
    "read_answer",
    "run_pipeline",
    "threshold_filter",
    "token_set_ratio",
    "tokenize",
    "weighted_token_set_ratio",
    "write_alignment",
]
