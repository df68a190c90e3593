"""Robustness: arbitrary input never crashes the config parsers.

Every failure mode must surface as a :class:`~repro.errors.ConfigError`
subclass (or parse successfully) — no raw ``AttributeError``/``IndexError``
leaking from the XML layer.  The workflow parser must also agree with the
lint model it is derived from (``tests/config/_agreement.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import parse_input_config, parse_operator_config, parse_workflow_config
from repro.errors import PaParError
from tests.config._agreement import assert_parser_agrees

PARSERS = [parse_input_config, parse_workflow_config, parse_operator_config]


def parse(parser, text):
    """Parse ``text``; a designed failure is a PaParError."""
    if parser is parse_workflow_config:
        assert_parser_agrees(text, "fuzz.xml")
        return
    try:
        parser(text)
    except PaParError:
        pass  # the designed failure mode

xml_fragments = st.text(
    alphabet=st.sampled_from(list("<>/= \"'abcdefinputworkflowparam\n\t")), max_size=300
)


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=80)
@given(text=xml_fragments)
def test_arbitrary_text_never_crashes(parser, text):
    parse(parser, text)


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=40)
@given(text=st.text(max_size=200))
def test_arbitrary_unicode_never_crashes(parser, text):
    parse(parser, text)


# structured fuzz: well-formed XML with random tag/attribute soup
@st.composite
def random_xml(draw):
    tag = draw(st.sampled_from(["input", "workflow", "prog", "data", "element"]))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(["id", "name", "type", "operator", "value", "format"]),
            st.text(alphabet="abc123_$.", max_size=10),
            max_size=4,
        )
    )
    children = draw(
        st.lists(
            st.sampled_from(
                [
                    '<param name="x" type="integer"/>',
                    '<value name="f" type="integer"/>',
                    "<element/>",
                    "<operators/>",
                    '<operator id="o" operator="Sort"/>',
                    "<input_format>binary</input_format>",
                    "<start_position>zz</start_position>",
                ]
            ),
            max_size=5,
        )
    )
    attr_text = "".join(f' {k}="{v}"' for k, v in attrs.items())
    return f"<{tag}{attr_text}>{''.join(children)}</{tag}>"


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=60)
@given(xml=random_xml())
def test_wellformed_soup_never_crashes(parser, xml):
    parse(parser, xml)
