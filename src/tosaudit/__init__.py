"""Terms-of-Service consent audit toolkit.

Measures textual accessibility (readability and reading time),
semantic transparency (vague-term clarity and specificity of
data-practice disclosures, with a human review round-trip), and
provides the validated schema for manual interface-design assessment.

The package imports no submodule; import the one you use, such as
`from tosaudit import pipeline` or
`from tosaudit.specificity import SentenceFinding`.
"""

__version__ = "0.1.0"
