"""Multiplication-free point-cloud classifiers.

Shift layers quantize weights to signed powers of two (affine becomes
bitwise shifts), adder layers score relevance by negative L1 distance,
and the hybrid model interleaves the two at unchanged depth with
per-layer-type optimizers. A bit-exact 5-bit / Q16.16 fixed-point path
runs shift layers in pure integer arithmetic.
"""
