"""Unit tests for schemas and the photon DTD."""

import pytest

from repro.xmlkit import PHOTON_SCHEMA, Path, Schema, SchemaNode, XmlSchemaError, element


class TestPhotonSchema:
    def test_paths_match_the_paper_dtd(self):
        paths = {str(p) for p in PHOTON_SCHEMA.paths()}
        assert paths == {
            "phc",
            "coord",
            "coord/cel",
            "coord/cel/ra",
            "coord/cel/dec",
            "coord/det",
            "coord/det/dx",
            "coord/det/dy",
            "en",
            "det_time",
        }

    def test_leaf_paths(self):
        leaves = {str(p) for p in PHOTON_SCHEMA.leaf_paths()}
        assert leaves == {
            "phc",
            "coord/cel/ra",
            "coord/cel/dec",
            "coord/det/dx",
            "coord/det/dy",
            "en",
            "det_time",
        }

    def test_node_lookup(self):
        assert PHOTON_SCHEMA.node_at(Path("en")).value_type == "decimal"
        assert PHOTON_SCHEMA.node_at(Path("phc")).value_type == "int"
        with pytest.raises(XmlSchemaError):
            PHOTON_SCHEMA.node_at(Path("nope"))

    def test_has_path(self):
        assert PHOTON_SCHEMA.has_path(Path("coord/det/dx"))
        assert not PHOTON_SCHEMA.has_path(Path("coord/x"))

    def test_generated_photons_validate(self, photon_sample):
        for item in photon_sample[:50]:
            PHOTON_SCHEMA.validate(item)


class TestValidation:
    @pytest.fixture()
    def schema(self):
        return Schema(
            root=SchemaNode(
                "item",
                children=(
                    SchemaNode("n", value_type="int"),
                    SchemaNode("wrap", children=(SchemaNode("s", value_type="string"),)),
                ),
            ),
            stream_tag="items",
        )

    def test_valid(self, schema):
        schema.validate(element("item", element("n", text=3)))

    def test_wrong_root(self, schema):
        with pytest.raises(XmlSchemaError):
            schema.validate(element("other"))

    def test_undeclared_child(self, schema):
        with pytest.raises(XmlSchemaError):
            schema.validate(element("item", element("bogus")))

    def test_leaf_with_children(self, schema):
        with pytest.raises(XmlSchemaError):
            schema.validate(element("item", element("n", element("x"))))

    def test_leaf_without_value(self, schema):
        with pytest.raises(XmlSchemaError):
            schema.validate(element("item", element("n")))

    def test_bad_int(self, schema):
        from repro.xmlkit import Element

        with pytest.raises(XmlSchemaError):
            schema.validate(element("item", Element("n", text="x")))

    def test_interior_with_text(self, schema):
        from repro.xmlkit import Element

        with pytest.raises(XmlSchemaError):
            schema.validate(element("item", Element("wrap", text="t")))


class TestBuilder:
    """The schema's compiled item constructor (DESIGN.md §7, §14)."""

    @pytest.fixture()
    def schema(self):
        return Schema(
            root=SchemaNode(
                "item",
                children=(
                    SchemaNode("n", value_type="int"),
                    SchemaNode("wrap", children=(SchemaNode("s", value_type="string"),)),
                    SchemaNode("any"),
                ),
            ),
            stream_tag="items",
        )

    @pytest.mark.parametrize("text", ["plain", "a<b & c>d", "süß ✓", "", None])
    def test_equals_the_public_constructor(self, schema, text):
        from repro.xmlkit import serialize

        built = schema.builder()("42", text, text)
        reference = element(
            "item",
            element("n", text=42),
            element("wrap", element("s", text=text)),
            element("any", text=text),
        )
        assert built == reference
        assert serialize(built) == serialize(reference)
        leaves = [node for node in built.iter() if not node.children]
        assert [leaf.frozen for leaf in leaves] == [True, True, True]
        assert not built.frozen and not built.children[1].frozen
        built.children[1].append(element("late"))  # interior nodes stay open
        built.freeze()
        for node in built.iter():
            assert node._size == len(serialize(node).encode())

    def test_compiled_once_per_shape(self, schema):
        assert schema.builder() is schema.builder()

    def test_arity_is_the_leaf_count(self, schema):
        from repro.xmlkit.columns import compile_builder

        with pytest.raises(TypeError):
            schema.builder()("1", "2")
        with pytest.raises(ValueError, match="leaves"):
            compile_builder(("item", (("n", ()), ("m", ()))), (True,))

    def test_tags_validated_at_compile_time(self):
        from repro.xmlkit.columns import compile_builder

        with pytest.raises(ValueError, match="invalid element tag"):
            compile_builder(("item", (("no good", ()),)), (False,))
