import gc
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse_description
from svcnet import corpus
from svcnet.cli import main
from svcnet.corpus import (
    CorpusError,
    ParameterDesc,
    collection_from_json,
    collection_stats,
    collection_to_json,
    load_collection,
    parse_description,
)
from svcnet.errors import UsageError

GETPRICE_WSDL = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="BookPrice" targetNamespace="http://ex.org/bookprice"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/bookprice">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/bookprice">
      <xsd:element name="book" type="xsd:string"/>
      <xsd:element name="price" type="xsd:double"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="getPriceRequest">
    <wsdl:part name="book" element="tns:book"/>
  </wsdl:message>
  <wsdl:message name="getPriceResponse">
    <wsdl:part name="price" element="tns:price"/>
  </wsdl:message>
  <wsdl:portType name="BookPricePortType">
    <wsdl:operation name="getPrice">
      <wsdl:input message="tns:getPriceRequest"/>
      <wsdl:output message="tns:getPriceResponse"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:service name="BookPrice"/>
</wsdl:definitions>
"""

SAWSDL_ANNOTATED = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="BookInfo" targetNamespace="http://ex.org/bookinfo"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/bookinfo"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/bookinfo">
      <xsd:element name="book" type="xsd:string"
                   sawsdl:modelReference="http://ex.org/onto#Book"/>
      <xsd:element name="info" type="xsd:string"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="lookupRequest">
    <wsdl:part name="book" element="tns:book"/>
  </wsdl:message>
  <wsdl:message name="lookupResponse">
    <wsdl:part name="info" element="tns:info"/>
  </wsdl:message>
  <wsdl:portType name="BookInfoPortType">
    <wsdl:operation name="lookup">
      <wsdl:input message="tns:lookupRequest"/>
      <wsdl:output message="tns:lookupResponse"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


def find_op(parsed, name):
    for svc in parsed.services:
        for op in svc.operations:
            if op.name == name:
                return op
    raise AssertionError(f"operation {name!r} not found")


def test_parse_getprice_fixture():
    parsed = parse_description(GETPRICE_WSDL, "getprice.wsdl")
    op = find_op(parsed, "getPrice")
    assert len(op.inputs) == 1 and len(op.outputs) == 1
    (inp,) = op.inputs
    (out,) = op.outputs
    assert inp.name == "book" and inp.xsd_type == "xsd:string"
    assert out.name == "price" and out.xsd_type == "xsd:double"
    assert op.op_id == "BookPrice::getPrice"


def test_model_reference_populates_concept():
    parsed = parse_description(SAWSDL_ANNOTATED, "bookinfo.wsdl")
    op = find_op(parsed, "lookup")
    (inp,) = op.inputs
    assert inp.concept == "http://ex.org/onto#Book"
    (out,) = op.outputs
    assert out.concept is None


def test_model_reference_that_urlsplit_refuses_is_dropped_with_a_warning():
    # urlsplit raises ValueError on an unclosed IPv6 bracket.
    assert not corpus._is_absolute_iri("http://[::1")
    doc = SAWSDL_ANNOTATED.replace(b"http://ex.org/onto#Book", b"http://[::1")
    parsed = parse_description(doc, "v6.wsdl")
    (inp,) = find_op(parsed, "lookup").inputs
    assert inp.concept is None
    assert "v6.wsdl: modelReference 'http://[::1' is not an absolute IRI; dropped" in parsed.warnings


def test_multi_iri_model_reference_keeps_first_and_warns():
    doc = SAWSDL_ANNOTATED.replace(
        b'sawsdl:modelReference="http://ex.org/onto#Book"',
        b'sawsdl:modelReference="http://ex.org/onto#Book http://ex.org/onto#Item"',
    )
    parsed = parse_description(doc, "multi.wsdl")
    (inp,) = find_op(parsed, "lookup").inputs
    assert inp.concept == "http://ex.org/onto#Book"
    assert any("keeping the first" in w for w in parsed.warnings)


def test_malformed_xml_reports_location():
    with pytest.raises(CorpusError, match=r"broken\.wsdl.*line"):
        parse_description(b"<wsdl:definitions", "broken.wsdl")


def test_non_wsdl_root_rejected():
    with pytest.raises(CorpusError, match="not a WSDL"):
        parse_description(b"<other/>", "other.xml")


@pytest.mark.parametrize("encoding", [b"bogus", b"shift_jis", b"rot13", b"idna"])
def test_unusable_declared_encoding_is_malformed_xml(encoding):
    doc = GETPRICE_WSDL.replace(b'encoding="UTF-8"', b'encoding="' + encoding + b'"')
    with pytest.raises(CorpusError, match=r"enc\.wsdl: malformed XML"):
        parse_description(doc, "enc.wsdl")


def test_operation_without_io_warned_but_kept():
    doc = GETPRICE_WSDL.replace(
        b'<wsdl:input message="tns:getPriceRequest"/>', b""
    ).replace(b'<wsdl:output message="tns:getPriceResponse"/>', b"")
    parsed = parse_description(doc, "empty-op.wsdl")
    op = find_op(parsed, "getPrice")
    assert not op.inputs and not op.outputs
    assert any("neither inputs nor outputs" in w for w in parsed.warnings)


GETPRICE_OPERATION = b"""<wsdl:operation name="getPrice">
      <wsdl:input message="tns:getPriceRequest"/>
      <wsdl:output message="tns:getPriceResponse"/>
    </wsdl:operation>"""


@pytest.mark.parametrize("edits, warning, service", [
    ([(GETPRICE_OPERATION, GETPRICE_OPERATION * 2)],
     "odd.wsdl: duplicate operation 'getPrice' kept once", "BookPrice"),
    ([(b'<wsdl:service name="BookPrice"/>',
       b'<wsdl:service name="BookPrice"/><wsdl:service name="Other"/>')],
     "odd.wsdl: multiple service elements; using the first", "BookPrice"),
    ([(b'<wsdl:input message="tns:getPriceRequest"/>', b"<wsdl:input/>")],
     "odd.wsdl: getPrice: input/output without message", "BookPrice"),
    ([(b'<wsdl:part name="book" element="tns:book"/>', b'<wsdl:part name="book"/>')],
     "odd.wsdl: getPrice: part 'book' has neither element nor type", "BookPrice"),
    ([(b'<wsdl:service name="BookPrice"/>', b""), (b'name="BookPrice" ', b"")], None, "odd"),
], ids=["duplicate-operation", "two-services", "input-without-message",
        "part-without-element-or-type", "service-named-from-file-stem"])
def test_structural_oddities_are_warnings_not_errors(edits, warning, service):
    doc = GETPRICE_WSDL
    for old, new in edits:
        assert doc.count(old) == 1
        doc = doc.replace(old, new)
    parsed = parse_description(doc, "odd.wsdl")
    assert parsed.warnings == ((warning,) if warning else ())
    assert [svc.name for svc in parsed.services] == [service]
    assert [op.op_id for op in parsed.services[0].operations] == [f"{service}::getPrice"]


WRAPPER_WSDL = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="Orders" targetNamespace="http://ex.org/orders"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/orders"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/orders">
      <xsd:element name="placeOrder">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="item" type="xsd:string"
                         sawsdl:modelReference="http://ex.org/onto#Item"/>
            <xsd:element name="quantity" type="xsd:int"/>
          </xsd:sequence>
        </xsd:complexType>
      </xsd:element>
      <xsd:element name="receipt" type="tns:ReceiptType"/>
      <xsd:complexType name="ReceiptType"
                       sawsdl:modelReference="http://ex.org/onto#Receipt"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="placeOrderRequest">
    <wsdl:part name="parameters" element="tns:placeOrder"/>
  </wsdl:message>
  <wsdl:message name="placeOrderResponse">
    <wsdl:part name="receipt" element="tns:receipt"/>
  </wsdl:message>
  <wsdl:portType name="OrdersPortType">
    <wsdl:operation name="placeOrder">
      <wsdl:input message="tns:placeOrderRequest"/>
      <wsdl:output message="tns:placeOrderResponse"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


def test_wrapper_children_become_parameters():
    parsed = parse_description(WRAPPER_WSDL, "orders.wsdl")
    op = find_op(parsed, "placeOrder")
    names = {p.name for p in op.inputs}
    assert names == {"item", "quantity"}
    by_name = {p.name: p for p in op.inputs}
    assert by_name["item"].concept == "http://ex.org/onto#Item"
    assert by_name["quantity"].concept is None


def test_named_type_model_reference_reaches_parameter():
    parsed = parse_description(WRAPPER_WSDL, "orders.wsdl")
    (out,) = find_op(parsed, "placeOrder").outputs
    assert out.name == "receipt"
    assert out.concept == "http://ex.org/onto#Receipt"


def test_unresolved_element_kept_with_warning():
    doc = GETPRICE_WSDL.replace(b'element="tns:book"', b'element="tns:missing"')
    parsed = parse_description(doc, "unresolved.wsdl")
    op = find_op(parsed, "getPrice")
    (inp,) = op.inputs
    assert inp.name == "missing" and inp.concept is None
    assert any("unresolved element" in w for w in parsed.warnings)


@pytest.mark.parametrize("doc, where", [
    (GETPRICE_WSDL.replace(b'element="tns:book"', b'element="tns:"'),
     "getPrice: unresolved element 'tns:'"),
    (GETPRICE_WSDL.replace(b'element="tns:book"', b'element=":"'),
     "getPrice: unresolved element ':'"),
    (WRAPPER_WSDL.replace(b'<xsd:element name="quantity" type="xsd:int"/>',
                          b'<xsd:element ref="tns:"/>'),
     "unresolved element ref 'tns:'"),
], ids=["part-prefix-only", "part-colon", "child-ref"])
def test_element_reference_without_local_name_is_a_corpus_error(doc, where):
    with pytest.raises(CorpusError, match=f"nolocal.wsdl: {where} has no local name"):
        parse_description(doc, "nolocal.wsdl")


def test_part_with_type_records_raw_qname():
    doc = GETPRICE_WSDL.replace(
        b'<wsdl:part name="book" element="tns:book"/>',
        b'<wsdl:part name="book" type="imported:BookType"/>',
    )
    parsed = parse_description(doc, "typed.wsdl")
    (inp,) = find_op(parsed, "getPrice").inputs
    assert inp.name == "book"
    assert inp.xsd_type == "imported:BookType"


# A message with two parts of the same name and concept but different types;
# the concept is none (built-in types) or a named type's.
SAME_NAME_PARTS_WSDL = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="Qty" targetNamespace="http://ex.org/q"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/q"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/q">
      <xsd:simpleType name="Count" sawsdl:modelReference="http://ex.org/onto#Qty"/>
      <xsd:simpleType name="Amount" sawsdl:modelReference="http://ex.org/onto#Qty"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="orderRequest">
    <wsdl:part name="qty" type="FIRST"/>
    <wsdl:part name="qty" type="SECOND"/>
  </wsdl:message>
  <wsdl:portType name="QtyPortType">
    <wsdl:operation name="order">
      <wsdl:input message="tns:orderRequest"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


@pytest.mark.parametrize(
    "first, second, concept",
    [
        ("xsd:int", "xsd:long", None),
        ("xsd:long", "xsd:int", None),
        ("tns:Count", "tns:Amount", "http://ex.org/onto#Qty"),
        ("tns:Amount", "tns:Count", "http://ex.org/onto#Qty"),
    ],
)
def test_parts_of_one_name_and_concept_keep_the_first_type(first, second, concept):
    doc = (SAME_NAME_PARTS_WSDL.replace(b"FIRST", first.encode())
           .replace(b"SECOND", second.encode()))
    (inp,) = find_op(parse_description(doc, "qty.wsdl"), "order").inputs
    assert (inp.name, inp.xsd_type, inp.concept) == ("qty", first, concept)


# The schema of namespace b rebinds tns, and both schemas declare "item".
REBOUND_WSDL = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="Rebound" targetNamespace="http://ex.org/a"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/a"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/b" xmlns:tns="http://ex.org/b">
      <xsd:element name="item" type="xsd:string"
                   sawsdl:modelReference="http://ex.org/onto#B"/>
    </xsd:schema>
    <xsd:schema targetNamespace="http://ex.org/a">
      <xsd:element name="item" type="xsd:int"
                   sawsdl:modelReference="http://ex.org/onto#A"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="getRequest">
    <wsdl:part name="item" element="tns:item"/>
  </wsdl:message>
  <wsdl:portType name="ReboundPortType">
    <wsdl:operation name="get">
      <wsdl:input message="tns:getRequest"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


def test_prefix_bound_twice_keeps_its_first_binding():
    (inp,) = find_op(parse_description(REBOUND_WSDL, "rebound.wsdl"), "get").inputs
    assert (inp.xsd_type, inp.concept) == ("xsd:int", "http://ex.org/onto#A")


def test_parse_is_deterministic():
    assert parse_description(GETPRICE_WSDL, "a") == parse_description(GETPRICE_WSDL, "a")


def test_part_order_does_not_matter():
    two_parts = GETPRICE_WSDL.replace(
        b'<wsdl:part name="book" element="tns:book"/>',
        b'<wsdl:part name="book" element="tns:book"/><wsdl:part name="price" element="tns:price"/>',
    )
    swapped = GETPRICE_WSDL.replace(
        b'<wsdl:part name="book" element="tns:book"/>',
        b'<wsdl:part name="price" element="tns:price"/><wsdl:part name="book" element="tns:book"/>',
    )
    a = parse_description(two_parts, "x").services[0].operations[0]
    b = parse_description(swapped, "x").services[0].operations[0]
    assert a.inputs == b.inputs


# ---------------------------------------------------------------------------
# Schema resolution, pinned by digest
# ---------------------------------------------------------------------------


# The WSDL head shared by the schema-resolution fixtures; each fills in its
# schemas, messages and operations.
SCHEMA_HEAD = b"""<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="Schemas" targetNamespace="http://ex.org/s"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/s"
    xmlns:other="http://ex.org/other"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl"
    xmlns:old="http://www.w3.org/2002/ws/sawsdl/spec/sawsdl#">
"""


def schema_doc(types: bytes, messages: bytes, operations: bytes) -> bytes:
    return (SCHEMA_HEAD + b"<wsdl:types>" + types + b"</wsdl:types>" + messages
            + b'<wsdl:portType name="P">' + operations + b"</wsdl:portType></wsdl:definitions>")


SCHEMA_CASES = {
    # An element typed by a named wrapper whose groups are read sequence,
    # all, choice; the first (name, concept) duplicate keeps its type.  A
    # leaf typed by a simpleType takes the type's concept.
    "named-wrapper": schema_doc(
        b"""<xsd:schema targetNamespace="http://ex.org/s">
          <xsd:element name="order" type="tns:OrderType"
                       sawsdl:modelReference="http://ex.org/onto#Order"/>
          <xsd:element name="code" type="tns:Sku"/>
          <xsd:element name="label" type="tns:Sku"
                       sawsdl:modelReference="http://ex.org/onto#Label"/>
          <xsd:complexType name="OrderType" sawsdl:modelReference="http://ex.org/onto#OT">
            <xsd:choice>
              <xsd:element name="x" type="xsd:string"/>
              <xsd:element name="gift" type="xsd:boolean"/>
            </xsd:choice>
            <xsd:sequence>
              <xsd:element name="item" type="tns:Sku"/>
              <xsd:element name="x" type="xsd:int"/>
              <xsd:element type="xsd:int" sawsdl:modelReference="http://ex.org/onto#Nameless"/>
            </xsd:sequence>
            <xsd:all>
              <xsd:element name="count" type="xsd:int"
                           old:modelReference="http://ex.org/onto#Count"/>
              <xsd:element name="x" type="xsd:long"/>
            </xsd:all>
          </xsd:complexType>
          <xsd:simpleType name="Sku" sawsdl:modelReference="http://ex.org/onto#Sku"/>
        </xsd:schema>""",
        b"""<wsdl:message name="in"><wsdl:part name="p" element="tns:order"/></wsdl:message>
        <wsdl:message name="out">
          <wsdl:part name="c" element="tns:code"/>
          <wsdl:part name="l" element="tns:label"/>
          <wsdl:part name="t" type="tns:Sku"/>
          <wsdl:part name="w" type="tns:OrderType"/>
        </wsdl:message>""",
        b"""<wsdl:operation name="buy">
          <wsdl:input message="tns:in"/><wsdl:output message="tns:out"/>
        </wsdl:operation>""",
    ),
    # Wrapper children by ref: resolved in the target namespace, resolved by
    # name through an unbound prefix, and unresolved.  A resolved ref is a
    # leaf even when its target is itself a wrapper.
    "ref-children": schema_doc(
        b"""<xsd:schema targetNamespace="http://ex.org/s">
          <xsd:element name="req">
            <xsd:complexType>
              <xsd:sequence>
                <xsd:element ref="tns:book"/>
                <xsd:element ref="nobody:price"/>
                <xsd:element ref="tns:missing"/>
                <xsd:element ref="tns:nested"/>
                <xsd:element ref="tns:typed"/>
                <xsd:element/>
                <xsd:element ref="" name="plain" type="xsd:string"/>
              </xsd:sequence>
            </xsd:complexType>
          </xsd:element>
          <xsd:element name="book" type="xsd:string"
                       sawsdl:modelReference="http://ex.org/onto#Book"/>
          <xsd:element name="price" type="xsd:double"/>
          <xsd:element name="nested">
            <xsd:complexType><xsd:sequence>
              <xsd:element name="deep" type="xsd:string"/>
            </xsd:sequence></xsd:complexType>
          </xsd:element>
          <xsd:element name="typed" type="tns:Money"/>
          <xsd:complexType name="Money" sawsdl:modelReference="http://ex.org/onto#Money">
            <xsd:sequence><xsd:element name="amount" type="xsd:double"/></xsd:sequence>
          </xsd:complexType>
        </xsd:schema>""",
        b"""<wsdl:message name="in"><wsdl:part name="p" element="tns:req"/></wsdl:message>
        <wsdl:message name="out"><wsdl:part name="p" element="tns:nested"/></wsdl:message>""",
        b"""<wsdl:operation name="fetch">
          <wsdl:input message="tns:in"/><wsdl:output message="tns:out"/>
        </wsdl:operation>""",
    ),
    # An inline complexType without a group makes a leaf even next to a
    # type= naming a wrapper; the leaf takes that type's concept.  A
    # complexType and a simpleType named alike: the qualified name finds the
    # later declaration, the by-name fallback the first.
    "inline-and-same-name": schema_doc(
        b"""<xsd:schema targetNamespace="http://ex.org/s">
          <xsd:element name="req" type="tns:Wrap"><xsd:complexType/></xsd:element>
          <xsd:element name="wrapped" type="tns:Wrap"/>
          <xsd:element name="q" type="tns:Dual"/>
          <xsd:element name="u" type="Dual"/>
          <xsd:element name="v" type="other:Dual"/>
          <xsd:element name="s" type="xsd:Dual"/>
          <xsd:complexType name="Wrap" sawsdl:modelReference="http://ex.org/onto#Wrap">
            <xsd:sequence><xsd:element name="inner" type="xsd:string"/></xsd:sequence>
          </xsd:complexType>
          <xsd:complexType name="Dual" sawsdl:modelReference="http://ex.org/onto#DualC">
            <xsd:sequence><xsd:element name="dc" type="xsd:string"/></xsd:sequence>
          </xsd:complexType>
          <xsd:simpleType name="Dual" sawsdl:modelReference="http://ex.org/onto#DualS"/>
          <xsd:complexType name="Empty" sawsdl:modelReference="http://ex.org/onto#Empty">
            <xsd:sequence/>
          </xsd:complexType>
          <xsd:element name="e" type="tns:Empty"/>
        </xsd:schema>""",
        b"""<wsdl:message name="a"><wsdl:part name="p" element="tns:req"/>
          <wsdl:part name="p2" element="tns:wrapped"/></wsdl:message>
        <wsdl:message name="b"><wsdl:part name="q" element="tns:q"/>
          <wsdl:part name="u" element="tns:u"/><wsdl:part name="v" element="tns:v"/>
          <wsdl:part name="s" element="tns:s"/><wsdl:part name="e" element="tns:e"/></wsdl:message>""",
        b"""<wsdl:operation name="op">
          <wsdl:input message="tns:a"/><wsdl:output message="tns:b"/>
        </wsdl:operation>""",
    ),
    # Two schemas declare "item", and one declares "dup" twice: a qualified
    # name finds its own namespace's (last) declaration, an unknown
    # namespace or prefix falls back to the first declared by name.
    "qualified-and-by-name": schema_doc(
        b"""<xsd:schema targetNamespace="http://ex.org/other">
          <xsd:element name="item" type="xsd:string"
                       sawsdl:modelReference="http://ex.org/onto#OtherItem"/>
        </xsd:schema>
        <xsd:schema targetNamespace="http://ex.org/s">
          <xsd:element name="item" type="xsd:int"
                       sawsdl:modelReference="http://ex.org/onto#Item"/>
          <xsd:element name="dup" type="xsd:int"
                       sawsdl:modelReference="http://ex.org/onto#Dup1"/>
          <xsd:element name="dup" type="xsd:long"
                       sawsdl:modelReference="http://ex.org/onto#Dup2"/>
        </xsd:schema>
        <xsd:schema xmlns:u="urn:unused">
          <xsd:element name="free" type="xsd:string"/>
        </xsd:schema>""",
        b"""<wsdl:message name="a"><wsdl:part name="p" element="tns:item"/>
          <wsdl:part name="q" element="other:item"/>
          <wsdl:part name="r" element="nobody:item"/>
          <wsdl:part name="s" element="item"/></wsdl:message>
        <wsdl:message name="b"><wsdl:part name="p" element="tns:dup"/>
          <wsdl:part name="q" element="x:dup"/>
          <wsdl:part name="r" element="free"/>
          <wsdl:part name="s" element="tns:free"/></wsdl:message>""",
        b"""<wsdl:operation name="op">
          <wsdl:input message="tns:a"/><wsdl:output message="tns:b"/>
        </wsdl:operation>""",
    ),
    # Bad modelReferences on declarations no part refers to: the warnings
    # come in scan order (elements with their inline children, then
    # complex types with their children, then simple types, schema by
    # schema); nameless declarations are not read.
    "unreferenced-bad-references": schema_doc(
        b"""<xsd:schema targetNamespace="http://ex.org/s">
          <xsd:simpleType name="S1" sawsdl:modelReference="relative#s1"/>
          <xsd:complexType name="C1" sawsdl:modelReference="http://ex.org/onto#C1 http://ex.org/onto#C2">
            <xsd:choice><xsd:element name="c" sawsdl:modelReference="bad c"/></xsd:choice>
            <xsd:sequence>
              <xsd:element name="b" old:modelReference="bad-b"/>
              <xsd:element sawsdl:modelReference="nameless-child"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:element name="e1" sawsdl:modelReference="not-an-iri">
            <xsd:complexType sawsdl:modelReference="inline-type-ref"><xsd:all>
              <xsd:element name="kid" sawsdl:modelReference="kid-ref"/>
            </xsd:all></xsd:complexType>
          </xsd:element>
          <xsd:element sawsdl:modelReference="nameless-element"/>
          <xsd:complexType sawsdl:modelReference="nameless-type">
            <xsd:sequence><xsd:element name="z" sawsdl:modelReference="nameless-type-child"/></xsd:sequence>
          </xsd:complexType>
          <xsd:element name="e2" sawsdl:modelReference=" "
                       old:modelReference="old-only"/>
          <xsd:element name="e3" old:modelReference="old-ref"/>
          <xsd:simpleType name="S2" sawsdl:modelReference="http://ex.org/onto#S2 x"/>
        </xsd:schema>
        <xsd:schema targetNamespace="http://ex.org/t">
          <xsd:element name="e4" sawsdl:modelReference="second-schema"/>
        </xsd:schema>""",
        b"""<wsdl:message name="a"><wsdl:part name="p" type="xsd:string"/></wsdl:message>""",
        b"""<wsdl:operation name="op"><wsdl:input message="tns:a"/></wsdl:operation>""",
    ),
}


def described(parsed) -> str:
    """``repr`` of a parse, services and warnings, with each parameter set
    in sorted order (a frozenset's own order follows the string hash seed)."""
    return repr((
        [(svc.name, svc.domain,
          [(op.name, sorted(op.inputs, key=repr), sorted(op.outputs, key=repr))
           for op in svc.operations])
         for svc in parsed.services],
        parsed.warnings,
    ))


# Recorded before the schema index held the parsed elements themselves.
SCHEMA_DIGESTS = {
    "inline-and-same-name": "1099b766a8e524cf645ac18d11301351accd77ccf319168db157344ca8a7fb62",
    "named-wrapper": "3887d6de85ea7fc8c5ef599a917420108183ab84df727d0fb372050059dc00af",
    "qualified-and-by-name": "c411fd2ba2c5efcf1092c8068c2d9be0f3af460df18e93230c311fbab4e48877",
    "ref-children": "3a6320e01741bdbf0729e68e647c521fc529060913de598b605c89c797671e46",
    "unreferenced-bad-references": "ee45a6479e412c51d456692d6db6809f5b34de468d341cfd40ac5c9b9d01236c",
}


@pytest.mark.parametrize("name", sorted(SCHEMA_CASES))
def test_schema_resolution_digest(name):
    parsed = parse_description(SCHEMA_CASES[name], f"{name}.wsdl")
    assert hashlib.sha256(described(parsed).encode()).hexdigest() == SCHEMA_DIGESTS[name]


# ---------------------------------------------------------------------------
# Collection loading
# ---------------------------------------------------------------------------


def write_fixture(dirpath, name, data):
    (dirpath / name).write_bytes(data)


def test_load_collection_counts_services(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    write_fixture(tmp_path, "b.wsdl", SAWSDL_ANNOTATED)
    write_fixture(tmp_path, "c.wsdl", WRAPPER_WSDL)
    coll = load_collection(tmp_path)
    assert len(coll.services) == 3


def test_load_collection_turns_bad_files_into_warnings(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    write_fixture(tmp_path, "b.wsdl", SAWSDL_ANNOTATED)
    write_fixture(tmp_path, "broken.wsdl", b"<wsdl:definitions")
    coll = load_collection(tmp_path)
    assert len(coll.services) == 2
    assert any("malformed XML" in w for w in coll.warnings)


def test_manifest_assigns_domains(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    (tmp_path / "manifest.json").write_text(json.dumps({"a.wsdl": "travel"}))
    coll = load_collection(tmp_path)
    assert coll.services[0].domain == "travel"
    assert coll.domain_of_operation()["BookPrice::getPrice"] == "travel"


def test_manifest_that_is_not_an_object_is_ignored_with_a_warning(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    (tmp_path / "manifest.json").write_text(json.dumps(["a.wsdl", "travel"]))
    coll = load_collection(tmp_path)
    assert [w for w in coll.warnings if "manifest" in w] == [
        f"{tmp_path / 'manifest.json'}: manifest must be a JSON object; ignored"]
    assert set(coll.domain_of_operation().values()) == {None}


def test_empty_directory_is_an_error(tmp_path):
    with pytest.raises(UsageError, match="no descriptions found"):
        load_collection(tmp_path)


def test_missing_directory_is_an_error(tmp_path):
    with pytest.raises(UsageError, match="no such directory"):
        load_collection(tmp_path / "nope")


def test_duplicate_service_names_are_disambiguated(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    write_fixture(tmp_path, "b.wsdl", GETPRICE_WSDL)
    coll = load_collection(tmp_path)
    names = [svc.name for svc in coll.services]
    assert len(set(names)) == 2
    ids = [op.op_id for _, op in coll.iter_operations()]
    assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# Stats and JSON round trip
# ---------------------------------------------------------------------------


def test_stats_on_empty_collection():
    from svcnet.corpus import ServiceCollection

    stats = collection_stats(ServiceCollection(services=()))
    assert (stats.services, stats.operations, stats.parameters) == (0, 0, 0)
    assert stats.annotation_coverage == 0.0


def test_stats_coverage_fraction(tmp_path):
    write_fixture(tmp_path, "a.wsdl", SAWSDL_ANNOTATED)
    stats = collection_stats(load_collection(tmp_path))
    assert stats.parameters == 2
    assert stats.annotated_parameters == 1
    assert stats.annotation_coverage == pytest.approx(0.5)


def test_json_round_trip(tmp_path):
    write_fixture(tmp_path, "a.wsdl", GETPRICE_WSDL)
    write_fixture(tmp_path, "b.wsdl", SAWSDL_ANNOTATED)
    (tmp_path / "manifest.json").write_text(json.dumps({"a.wsdl": "economy"}))
    coll = load_collection(tmp_path)
    again = collection_from_json(collection_to_json(coll))
    assert again == coll
    # and the dump itself is stable
    assert collection_to_json(again) == collection_to_json(coll)


DUMP = {"schema": corpus.COLLECTION_SCHEMA, "services": [
    {"name": "s", "operations": [{"name": "op", "inputs": [{"name": "x"}]}]}]}


@pytest.mark.parametrize("doc", [
    [],
    {**DUMP, "services": [{"operations": []}]},
    {**DUMP, "services": 5},
    {**DUMP, "services": [{"name": "s", "operations": [{"name": "op", "inputs": [{"name": ""}]}]}]},
    {**DUMP, "services": [{"name": "s", "operations": [{"name": "op", "inputs": [
        {"name": "x", "xsd_type": "a"}, {"name": "x", "xsd_type": "b"}]}]}]},
], ids=["list", "service-without-name", "services-not-a-list", "empty-parameter-name",
        "repeated-input"])
def test_malformed_collection_dump_is_a_corpus_error(doc):
    assert collection_from_json(json.dumps(DUMP)).services[0].operations[0].inputs
    with pytest.raises(CorpusError, match="invalid collection dump: "):
        collection_from_json(json.dumps(doc))


def test_collection_dump_of_an_unknown_schema_is_a_corpus_error():
    with pytest.raises(CorpusError, match="unsupported collection schema: 'svcnet-other/1'"):
        collection_from_json(json.dumps({**DUMP, "schema": "svcnet-other/1"}))


def test_parameter_desc_validation():
    with pytest.raises(ValueError):
        ParameterDesc(name="")
    with pytest.raises(ValueError):
        ParameterDesc(name="x", concept="not-an-iri")
    with pytest.raises(ValueError):
        ParameterDesc(name="x", concept="http://ex.org/has space")


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1f"],
                         ids=["no-break-space", "em-space", "unit-separator"])
def test_concept_iri_with_unicode_whitespace_is_rejected(space):
    with pytest.raises(ValueError, match="absolute IRI"):
        ParameterDesc(name="x", concept=f"http://ex.org/onto#a{space}b")


# ---------------------------------------------------------------------------
# Differential tests against the reference parse
# ---------------------------------------------------------------------------


def parse_outcome(parse, data: bytes) -> str:
    """The parse as :func:`described` shows it, warnings included, or the
    CorpusError's message; any other exception propagates and fails the test."""
    try:
        return described(parse(data, "fuzz.wsdl"))
    except CorpusError as exc:
        return f"CorpusError: {exc}"


# ``svcnet gen`` arguments of the benchmark's corpora; analyze-plugin reads
# graph-large's.
BENCH_CORPORA = {
    "boot-small": [],
    "graph-large": ["--services", "200", "--domains", "6", "--cross-domain-rate", "0.1"],
    "extract-large": ["--services", "1500", "--domains", "8", "--cross-domain-rate", "0.1"],
}


@pytest.mark.parametrize("seed", [0, 104729])
@pytest.mark.parametrize("workload", sorted(BENCH_CORPORA))
def test_bench_corpus_loads_as_the_reference(workload, seed, tmp_path, monkeypatch):
    assert main(["gen", str(tmp_path), *BENCH_CORPORA[workload], "--seed", str(seed)]) == 0
    coll = load_collection(tmp_path)
    monkeypatch.setattr(corpus, "parse_description", reference_parse_description)
    reference = load_collection(tmp_path)
    assert collection_to_json(coll) == collection_to_json(reference)
    assert coll == reference


def test_loading_a_collection_leaves_no_cyclic_garbage(tmp_path):
    # iterparse defines an iterator class per call, which is cyclic garbage
    # (2000 objects on this corpus); the parse must not bring that back.
    assert main(["gen", str(tmp_path), *BENCH_CORPORA["graph-large"], "--seed", "0"]) == 0
    gc.collect()
    gc.disable()
    try:
        load_collection(tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()


# expat reads iterparse input 16 KiB at a time, so one seed spans two reads.
PADDED_WSDL = GETPRICE_WSDL.replace(
    b"<wsdl:types>", b"<!--" + b"pad " * 4500 + b"-->\n  <wsdl:types>"
)
FUZZ_SEEDS = [GETPRICE_WSDL, SAWSDL_ANNOTATED, WRAPPER_WSDL, REBOUND_WSDL, PADDED_WSDL]
SPLICES = st.sampled_from([
    b"", b"<", b">", b"/>", b"&", b";", b'"', b"=", b":", b"tns:", b"xsd:",
    b' xmlns:tns="http://ex.org/other"', b"&amp;", b"&lt;", b"&#0;", b"&undefined;",
    b"<!--", b"-->", b"<![CDATA[x]]>", b"\xff", b"\x00", b"\xc3\xa9",
    b' sawsdl:modelReference="http://ex.org/onto#X http://ex.org/onto#Y"',
    b' sawsdl:modelReference="not an iri"', b' ref="tns:book"',
]) | st.binary(max_size=6)


ATTRIBUTE_VALUES = st.sampled_from([
    b"", b"tns:", b":", b"tns:book", b"tns:price", b"other:book", b"book", b"tns:ReceiptType",
    b"xsd:string", b"http://ex.org/onto#Book", b"http://ex.org/onto#A http://ex.org/onto#B",
    b"not-an-iri", b"getPrice", b"tns:getPriceRequest",
])


@st.composite
def mutated_wsdl(draw) -> bytes:
    """A fixture with lines deleted or repeated, attribute values swapped,
    short spans overwritten and maybe a truncated tail."""
    lines = draw(st.sampled_from(FUZZ_SEEDS)).split(b"\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    data = b"\n".join(lines)
    values = [m.span(1) for m in re.finditer(rb'="([^"]*)"', data)]
    for i in sorted(draw(st.sets(st.integers(0, len(values) - 1), max_size=3)), reverse=True):
        start, end = values[i]
        data = data[:start] + draw(ATTRIBUTE_VALUES) + data[end:]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        j = min(len(data), i + draw(st.integers(0, 8)))
        data = data[:i] + draw(SPLICES) + data[j:]
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


ENTITY_VALUES = [
    "tns:book", "getPrice", "http://ex.org/onto#Book", "", "&#60;", "&amp;x",
    "<wsdl:documentation/>", "&a;", "&b;&b;&b;&b;", "&undefined;",
]
ENTITY_USES = [
    (b'element="tns:book"', b'element="&a;"'),
    (b'name="getPrice"', b'name="&b;&c;"'),
    (b'<wsdl:types>', b'<wsdl:types>&c;'),
    (b'<wsdl:portType', b'&a;<wsdl:portType'),
    (b'type="xsd:string"', b'type="&b;"'),
]


@st.composite
def entity_wsdl(draw) -> bytes:
    """GETPRICE_WSDL with an internal DTD of general, external and
    parameter entities, some nested or recursive, referenced in attribute
    values and content."""
    decls = []
    for name in ("a", "b", "c"):
        kind = draw(st.sampled_from(["internal", "external", "parameter", "none"]))
        value = draw(st.sampled_from(ENTITY_VALUES))
        if kind == "internal":
            decls.append(f'<!ENTITY {name} "{value}">')
        elif kind == "external":
            decls.append(f'<!ENTITY {name} SYSTEM "file:///nonexistent/{name}.xml">')
        elif kind == "parameter":
            decls.append(f'<!ENTITY % {name} "{value}">')
    doctype = "<!DOCTYPE wsdl:definitions [" + "".join(decls) + "]>\n"
    head, rest = GETPRICE_WSDL.split(b"\n", 1)
    data = head + b"\n" + doctype.encode() + rest
    for old, new in draw(st.lists(st.sampled_from(ENTITY_USES), max_size=3, unique=True)):
        data = data.replace(old, new, 1)
    return data


@settings(max_examples=200, deadline=None)
@given(mutated_wsdl())
def test_mutated_wsdl_parses_as_the_reference(data):
    assert (parse_outcome(parse_description, data)
            == parse_outcome(reference_parse_description, data))


@settings(max_examples=150, deadline=None)
@given(entity_wsdl())
def test_entity_laden_wsdl_parses_as_the_reference(data):
    assert (parse_outcome(parse_description, data)
            == parse_outcome(reference_parse_description, data))
