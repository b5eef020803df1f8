"""
Scoring a mention with a hand-built lexicon
===========================================

A mention is scored by pairing each sentiment word with the adverb
directly in front of it (if that adverb is in the lexicon) and summing
modifier score times word score over the pairs. A ``Mention`` finds its
pairs once, when it is made.
"""
from sentiscore.lexicon import Lexicon, make_mention, mask_target, tokenize

# A small lexicon: positive words score above zero, negative below,
# and adverbs carry a non-negative multiplier.
lexicon = Lexicon(
    {"beautiful": 0.75, "sharp": 0.9, "blurry": -0.8, "slow": -0.6},
    {"very": 1.5, "slightly": 0.4},
)

text = "The S5 is very beautiful but slightly slow"

# Mask the entity under discussion before any processing.
masked = mask_target(text, "S5")
print("masked: ", masked)

tokens = tokenize(masked)
print("tokens: ", tokens)

# Each pair is (adverb or None, sentiment word).
mention = make_mention(masked, "positive", lexicon)
print("pairs:  ", list(mention.pairs))

# very(1.5) * beautiful(0.75) + slightly(0.4) * slow(-0.6) = 0.885
print("score:  ", mention.score(lexicon))

# An unmodified word contributes its raw score.
print("bare:   ", make_mention("TARGET is blurry", "negative", lexicon).score(lexicon))
