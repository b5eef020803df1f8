"""
Score-similarity data augmentation
==================================

Each sentiment word occurrence can be replaced by a word of similar
absolute score. A same-sign replacement keeps the label; an
opposite-sign replacement flips it and also swaps mapped comparatives
(better <-> worse) so the variant text stays coherent.
"""
from sentiscore.augment import AugmentConfig, augment_corpus, generate_variants
from sentiscore.lexicon import Lexicon, make_mention, mask_target

lexicon = Lexicon(
    {"horrible": -1.0, "poor": -1.0, "terrible": -1.0, "great": 1.0, "amazing": 1.0}
)

text = mask_target("Company A is better than Company B. Company B is horrible", "Company B")
mention = make_mention(text, "negative", lexicon)

print("original:", mention.raw_text, f"({mention.label})")
print()
for variant in generate_variants(mention, lexicon, AugmentConfig()):
    print(f"  {variant.label:8s} {variant.text}")
    print(f"           substitution: {variant.substitution}")

# With flips off only the label-preserving substitutions remain.
print()
print("without flips:")
for variant in generate_variants(mention, lexicon, AugmentConfig(include_flips=False)):
    print(f"  {variant.label:8s} {variant.text}")

# augment_corpus applies the same expansion to a whole labeled corpus
# and tags every variant with its source index.
corpus = [
    mention,
    make_mention("TARGET is amazing", "positive", lexicon),
]
augmented = augment_corpus(corpus, lexicon, AugmentConfig(max_variants_per_sample=2))
print()
print(f"{len(corpus)} mentions produced {len(augmented)} new samples")
for sample in augmented:
    print(f"  {sample.label:8s} {sample.text}  [{sample.provenance}]")
