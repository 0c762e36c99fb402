from hypothesis import given, settings, strategies as st

from complim.config import _SCHEMA, ConfigError, parse_config

# the expression language, its neighbours in Python's grammar, and bytes it refuses
_VALUE = st.text(alphabet="0123456789.eE+-*/() ;,_xytpisncoaujr[]=:#\"\\\t\0é", max_size=40)

# a section header followed by its own keys, so that most values reach their converter
_SECTION = st.sampled_from(list(_SCHEMA.items())).flatmap(
    lambda item: st.lists(
        st.builds("{} = {}".format, st.sampled_from(item[1]), _VALUE), max_size=6
    ).map(lambda lines: "\n".join([f"[{item[0]}]", *lines]))
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.lists(st.one_of(_SECTION, st.text()), max_size=4).map("\n".join)))
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
